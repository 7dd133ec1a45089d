// Package artifact is the cluster's content-addressed shared store:
// immutable blobs keyed by the hash that identifies them — run-cache
// entries under their config hash, warm-start snapshots under their
// warm-prefix hash. Because a key names exactly one possible content
// (the simulator is deterministic and both hash spaces are versioned),
// writes are idempotent and last-writer-wins races between workers are
// harmless: every writer stores the same bytes. That property is what
// lets any worker serve any cached result and fork any warm prefix
// produced elsewhere.
//
// Store is the interface seam: Disk is the local/NFS implementation,
// Mem backs tests, and a remote backend (object store, blob service)
// only needs Get/Put/Stat over (kind, key) to slot in.
package artifact

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"rrmpcm/internal/snapshot"
)

// Kind partitions the key space by artifact type. Keys are only unique
// within a kind (a config hash and a warm hash could in principle
// collide as strings; they never collide as artifacts).
type Kind string

const (
	// KindRun is a finished run's metrics in the engine run-cache
	// format (JSON envelope + FNV-1a trailer), keyed by config hash.
	KindRun Kind = "runs"
	// KindSnapshot is a warm-start snapshot blob in the snapshot codec
	// (self-checksummed), keyed by warm-prefix hash.
	KindSnapshot Kind = "snapshots"
)

// ext returns the on-disk filename extension for a kind, matching the
// layouts engine.RunCache and engine.SnapshotCache use, so a standalone
// cache directory can be adopted as (or promoted to) a shared store.
func (k Kind) ext() string {
	if k == KindSnapshot {
		return ".snap"
	}
	return ".json"
}

// valid reports whether the kind is one the store serves.
func (k Kind) valid() bool { return k == KindRun || k == KindSnapshot }

// keyPattern constrains keys to hash-like names: artifacts are
// content-addressed, and a key that is not a hex digest is a bug (and a
// path-traversal hazard) rather than a cache miss.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{6,128}$`)

// Store is the shared artifact store seam. Implementations must be
// safe for concurrent use by many goroutines and (for shared-media
// implementations) many processes. Get reports a missing artifact as
// (ok=false, nil error); errors are reserved for real I/O failures.
// Put must be atomic: a reader never observes a torn blob.
type Store interface {
	Get(kind Kind, key string) ([]byte, bool, error)
	Put(kind Kind, key string, blob []byte) error
	// Stat counts the artifacts of one kind (metrics, tests, smoke
	// assertions like "exactly one run entry per unique config").
	Stat(kind Kind) (int, error)
}

func checkAddr(kind Kind, key string) error {
	if !kind.valid() {
		return fmt.Errorf("artifact: unknown kind %q", kind)
	}
	if !keyPattern.MatchString(key) {
		return fmt.Errorf("artifact: key %q is not a content hash", key)
	}
	return nil
}

// Disk is the filesystem Store: one file per artifact under
// <root>/<kind>/, written atomically (temp + rename) so concurrent
// workers and killed runs never leave torn blobs. Snapshot blobs are
// integrity-checked on Get via their trailing FNV-1a checksum; run
// entries carry their own trailer, verified by the run-cache decoder.
type Disk struct {
	root string
}

// OpenDisk opens (creating if needed) a disk store rooted at root.
func OpenDisk(root string) (*Disk, error) {
	if root == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	for _, kind := range []Kind{KindRun, KindSnapshot} {
		if err := os.MkdirAll(filepath.Join(root, string(kind)), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: opening store: %w", err)
		}
	}
	return &Disk{root: root}, nil
}

func (d *Disk) path(kind Kind, key string) string {
	return filepath.Join(d.root, string(kind), key+kind.ext())
}

// Get implements Store. A snapshot blob whose trailing checksum does
// not verify is reported as a miss: the caller re-warms rather than
// feeding a corrupt blob to the restore path.
func (d *Disk) Get(kind Kind, key string) ([]byte, bool, error) {
	if err := checkAddr(kind, key); err != nil {
		return nil, false, err
	}
	blob, err := os.ReadFile(d.path(kind, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("artifact: reading %s/%s: %w", kind, key, err)
	}
	if kind == KindSnapshot && snapshot.VerifyTrailer(blob) != nil {
		return nil, false, nil
	}
	return blob, true, nil
}

// Put implements Store.
func (d *Disk) Put(kind Kind, key string, blob []byte) error {
	if err := checkAddr(kind, key); err != nil {
		return err
	}
	dir := filepath.Join(d.root, string(kind))
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: writing %s/%s: %w", kind, key, err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: writing %s/%s: %w", kind, key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: writing %s/%s: %w", kind, key, err)
	}
	if err := os.Rename(tmp.Name(), d.path(kind, key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: writing %s/%s: %w", kind, key, err)
	}
	return nil
}

// Stat implements Store.
func (d *Disk) Stat(kind Kind) (int, error) {
	if !kind.valid() {
		return 0, fmt.Errorf("artifact: unknown kind %q", kind)
	}
	matches, err := filepath.Glob(filepath.Join(d.root, string(kind), "*"+kind.ext()))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}

// Mem is the in-process Store (tests, single-process clusters).
type Mem struct {
	mu    sync.Mutex
	blobs map[Kind]map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{blobs: map[Kind]map[string][]byte{
		KindRun: {}, KindSnapshot: {},
	}}
}

// Get implements Store.
func (m *Mem) Get(kind Kind, key string) ([]byte, bool, error) {
	if err := checkAddr(kind, key); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.blobs[kind][key]
	return blob, ok, nil
}

// Put implements Store.
func (m *Mem) Put(kind Kind, key string, blob []byte) error {
	if err := checkAddr(kind, key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[kind][key] = append([]byte(nil), blob...)
	return nil
}

// Stat implements Store.
func (m *Mem) Stat(kind Kind) (int, error) {
	if !kind.valid() {
		return 0, fmt.Errorf("artifact: unknown kind %q", kind)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blobs[kind]), nil
}
