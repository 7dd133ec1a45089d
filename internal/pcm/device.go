package pcm

import (
	"fmt"
	"math/bits"
)

// DeviceConfig describes the MLC PCM main memory geometry (Table V).
// All sizes must be powers of two.
type DeviceConfig struct {
	MemBytes    uint64 // total capacity; paper: 8 GB
	Channels    int    // paper: 4
	Banks       int    // banks per channel; paper: 16
	RowBytes    uint64 // PCM array row; paper: 16 KB
	RowBufBytes uint64 // row buffer segment; paper: 1 KB
	BlockBytes  uint64 // memory block = LLC line; paper: 64 B

	// EnduranceWrites is the per-cell write endurance (paper: 5e6).
	EnduranceWrites float64
	// WearLevelEfficiency is the fraction of the average cell lifetime
	// the whole memory achieves under the assumed wear-leveling scheme
	// (paper: 0.95, citing Start-Gap).
	WearLevelEfficiency float64
}

// DefaultDeviceConfig returns the Table V memory configuration.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		MemBytes:            8 << 30,
		Channels:            4,
		Banks:               16,
		RowBytes:            16 << 10,
		RowBufBytes:         1 << 10,
		BlockBytes:          64,
		EnduranceWrites:     5e6,
		WearLevelEfficiency: 0.95,
	}
}

// Validate checks the geometry for internal consistency.
func (c DeviceConfig) Validate() error {
	pow2 := func(name string, v uint64) error {
		if v == 0 || v&(v-1) != 0 {
			return fmt.Errorf("pcm: %s (%d) must be a power of two", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"MemBytes", c.MemBytes}, {"RowBytes", c.RowBytes},
		{"RowBufBytes", c.RowBufBytes}, {"BlockBytes", c.BlockBytes},
		{"Channels", uint64(c.Channels)}, {"Banks", uint64(c.Banks)},
	} {
		if err := pow2(f.name, f.v); err != nil {
			return err
		}
	}
	if c.Banks > 64 {
		// The controller tracks a channel's banks in 64-bit masks.
		return fmt.Errorf("pcm: %d banks per channel (at most 64)", c.Banks)
	}
	if c.RowBufBytes > c.RowBytes {
		return fmt.Errorf("pcm: row buffer (%d) larger than row (%d)", c.RowBufBytes, c.RowBytes)
	}
	if c.BlockBytes > c.RowBufBytes {
		return fmt.Errorf("pcm: block (%d) larger than row buffer (%d)", c.BlockBytes, c.RowBufBytes)
	}
	minMem := c.RowBytes * uint64(c.Channels) * uint64(c.Banks)
	if c.MemBytes < minMem {
		return fmt.Errorf("pcm: memory %d smaller than one row per bank (%d)", c.MemBytes, minMem)
	}
	if c.EnduranceWrites <= 0 || c.WearLevelEfficiency <= 0 || c.WearLevelEfficiency > 1 {
		return fmt.Errorf("pcm: endurance %g / wear-level efficiency %g out of range",
			c.EnduranceWrites, c.WearLevelEfficiency)
	}
	return nil
}

// TotalBlocks returns the number of memory blocks in the device.
func (c DeviceConfig) TotalBlocks() uint64 { return c.MemBytes / c.BlockBytes }

// TotalBanks returns the number of banks across all channels.
func (c DeviceConfig) TotalBanks() int { return c.Channels * c.Banks }

// Location is a decoded physical address.
type Location struct {
	Channel int
	Bank    int
	Row     uint64 // row index within the bank
	Segment int    // which RowBufBytes segment of the row
	Offset  uint64 // byte offset within the segment
}

// GlobalBank returns a flat bank index in [0, Channels*Banks).
func (l Location) GlobalBank(c DeviceConfig) int { return l.Channel*c.Banks + l.Bank }

// AddressMap decodes byte addresses into device locations using the
// interleaving described in the package comment: the low RowBufBytes are
// contiguous, then channel, then bank, then row-segment, then row.
type AddressMap struct {
	cfg DeviceConfig

	offBits  uint
	chanBits uint
	bankBits uint
	segBits  uint
	rowBits  uint
}

// NewAddressMap builds the decoder for a validated config.
func NewAddressMap(cfg DeviceConfig) (*AddressMap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &AddressMap{cfg: cfg}
	m.offBits = uint(bits.TrailingZeros64(cfg.RowBufBytes))
	m.chanBits = uint(bits.TrailingZeros64(uint64(cfg.Channels)))
	m.bankBits = uint(bits.TrailingZeros64(uint64(cfg.Banks)))
	m.segBits = uint(bits.TrailingZeros64(cfg.RowBytes / cfg.RowBufBytes))
	used := m.offBits + m.chanBits + m.bankBits + m.segBits
	total := uint(bits.TrailingZeros64(cfg.MemBytes))
	if used > total {
		return nil, fmt.Errorf("pcm: geometry needs %d address bits, only %d available", used, total)
	}
	m.rowBits = total - used
	return m, nil
}

// Config returns the geometry the map was built for.
func (m *AddressMap) Config() DeviceConfig { return m.cfg }

// Decode splits a byte address into its device location. Addresses wrap
// modulo the memory size, so synthetic traces need not mask themselves.
func (m *AddressMap) Decode(addr uint64) Location {
	addr &= m.cfg.MemBytes - 1
	var l Location
	l.Offset = addr & (m.cfg.RowBufBytes - 1)
	addr >>= m.offBits
	l.Channel = int(addr & uint64(m.cfg.Channels-1))
	addr >>= m.chanBits
	l.Bank = int(addr & uint64(m.cfg.Banks-1))
	addr >>= m.bankBits
	l.Segment = int(addr & (m.cfg.RowBytes/m.cfg.RowBufBytes - 1))
	addr >>= m.segBits
	l.Row = addr
	return l
}

// Encode is the inverse of Decode; used by tests and the refresh engine to
// synthesize addresses for specific banks.
func (m *AddressMap) Encode(l Location) uint64 {
	addr := l.Row
	addr = addr<<m.segBits | uint64(l.Segment)
	addr = addr<<m.bankBits | uint64(l.Bank)
	addr = addr<<m.chanBits | uint64(l.Channel)
	addr = addr<<m.offBits | l.Offset
	return addr
}

// BlockAddr returns the block index of a byte address (64 B granularity).
func (m *AddressMap) BlockAddr(addr uint64) uint64 {
	return (addr & (m.cfg.MemBytes - 1)) / m.cfg.BlockBytes
}

// RowBufferTag identifies the open row-buffer segment of a bank: equal
// tags hit in the open row buffer.
func (m *AddressMap) RowBufferTag(addr uint64) uint64 {
	return (addr & (m.cfg.MemBytes - 1)) >> m.offBits
}
