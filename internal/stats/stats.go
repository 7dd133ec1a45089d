// Package stats derives the paper's evaluation metrics from raw simulator
// counters: PCM lifetime from wear rates (endurance 5e6 writes, 95 %
// wear-leveling efficiency per Table V), memory energy, geometric means
// for the cross-workload summaries, and the region write-interval
// histogram of Table III.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// SecondsPerYear converts lifetimes; the paper reports years.
const SecondsPerYear = 365.25 * 24 * 3600

// WearBudget returns the total block-write budget of the device: per-cell
// endurance times the number of blocks, derated by the wear-leveling
// efficiency (the whole memory reaches 95 % of the average cell
// lifetime).
func WearBudget(dev pcm.DeviceConfig) float64 {
	return dev.EnduranceWrites * float64(dev.TotalBlocks()) * dev.WearLevelEfficiency
}

// LifetimeYears converts a sustained wear rate (block writes per second,
// demand + all refresh causes) into the device lifetime in years.
func LifetimeYears(dev pcm.DeviceConfig, wearPerSecond float64) float64 {
	if wearPerSecond <= 0 {
		return math.Inf(1)
	}
	return WearBudget(dev) / wearPerSecond / SecondsPerYear
}

// FormatYears renders a lifetime for the report tables: two decimals,
// with the zero-wear infinite lifetime spelled "inf" instead of
// fmt's "+Inf".
func FormatYears(years float64) string {
	if math.IsInf(years, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", years)
}

// GlobalRefreshWearRate returns the block-write rate of the device's
// built-in global refresh: every block rewritten once per retention
// period of the given mode.
func GlobalRefreshWearRate(dev pcm.DeviceConfig, mode pcm.WriteMode) float64 {
	return float64(dev.TotalBlocks()) / pcm.Retention(mode).Seconds()
}

// Geomean returns the geometric mean of strictly positive values; zero
// and negative entries make the result 0 (they would in the paper's
// plots, too, by breaking the log).
func Geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// IntervalBucket classifies a region's average write interval into the
// rows of Table III.
type IntervalBucket int

// Table III buckets, in display order.
const (
	BucketSub1ms      IntervalBucket = iota // < 1e6 ns
	Bucket1msTo10ms                         // 1e6..1e7 ns
	Bucket10msTo100ms                       // 1e7..1e8 ns
	Bucket100msTo1s                         // 1e8 ns..1 s
	Bucket1sTo2s                            // 1..2 s (the paper's 5 s window tops out here)
	BucketBeyond2s                          // > 2 s average interval
	BucketWrittenOnce
	BucketNeverWritten
	numBuckets
)

// String implements fmt.Stringer with the paper's row labels.
func (b IntervalBucket) String() string {
	switch b {
	case BucketSub1ms:
		return "< 10^6 ns"
	case Bucket1msTo10ms:
		return "10^6 ns to 10^7 ns"
	case Bucket10msTo100ms:
		return "10^7 ns to 10^8 ns"
	case Bucket100msTo1s:
		return "10^8 ns to 1 s"
	case Bucket1sTo2s:
		return "1 s to 2 s"
	case BucketBeyond2s:
		return "> 2 s"
	case BucketWrittenOnce:
		return "written once"
	case BucketNeverWritten:
		return "never written"
	default:
		return fmt.Sprintf("IntervalBucket(%d)", int(b))
	}
}

// IntervalHistogram accumulates per-region write timing to regenerate
// Table III: for every 4 KB region it tracks first/last write and count,
// then classifies by average inter-write interval.
type IntervalHistogram struct {
	regionShift  uint
	totalRegions uint64
	// recs holds records by value: regions never allocate individual
	// heap objects, only map growth does, and Reset reuses the buckets.
	recs map[uint64]regionRec
}

type regionRec struct {
	first, last timing.Time
	count       uint64
}

// NewIntervalHistogram tracks writes over a memory of memBytes at 4 KB
// region granularity.
func NewIntervalHistogram(memBytes uint64) *IntervalHistogram {
	return &IntervalHistogram{
		regionShift:  12,
		totalRegions: memBytes >> 12,
		recs:         make(map[uint64]regionRec),
	}
}

// AddWrite records a memory write to addr at time t.
func (h *IntervalHistogram) AddWrite(addr uint64, t timing.Time) {
	region := addr >> h.regionShift
	r, ok := h.recs[region]
	if !ok {
		h.recs[region] = regionRec{first: t, last: t, count: 1}
		return
	}
	r.count++
	r.last = t
	h.recs[region] = r
}

// Row is one Table III line.
type Row struct {
	Bucket        IntervalBucket
	Regions       uint64
	RegionPercent float64
	Writes        uint64
	WritePercent  float64
}

// Rows classifies every region and returns the table in display order.
func (h *IntervalHistogram) Rows() []Row {
	var regions [numBuckets]uint64
	var writes [numBuckets]uint64
	var totalWrites uint64
	for _, r := range h.recs {
		totalWrites += r.count
		if r.count == 1 {
			regions[BucketWrittenOnce]++
			writes[BucketWrittenOnce] += r.count
			continue
		}
		avg := (r.last - r.first) / timing.Time(r.count-1)
		var b IntervalBucket
		switch {
		case avg < timing.Millisecond:
			b = BucketSub1ms
		case avg < 10*timing.Millisecond:
			b = Bucket1msTo10ms
		case avg < 100*timing.Millisecond:
			b = Bucket10msTo100ms
		case avg < timing.Second:
			b = Bucket100msTo1s
		case avg < 2*timing.Second:
			b = Bucket1sTo2s
		default:
			b = BucketBeyond2s
		}
		regions[b]++
		writes[b] += r.count
	}
	// Guard the subtraction: writes beyond the declared memory size
	// (or a zero-size histogram) would underflow the uint64.
	if touched := uint64(len(h.recs)); touched < h.totalRegions {
		regions[BucketNeverWritten] = h.totalRegions - touched
	}

	rows := make([]Row, 0, numBuckets)
	for b := IntervalBucket(0); b < numBuckets; b++ {
		row := Row{Bucket: b, Regions: regions[b], Writes: writes[b]}
		if h.totalRegions > 0 {
			row.RegionPercent = 100 * float64(regions[b]) / float64(h.totalRegions)
		}
		if totalWrites > 0 && b != BucketNeverWritten {
			row.WritePercent = 100 * float64(writes[b]) / float64(totalWrites)
		}
		rows = append(rows, row)
	}
	return rows
}

// HotShare returns the fraction of all writes landing in the hottest
// regions covering the given fraction of touched regions — the §III-C
// observation ("about 2 % of memory gets up to 97.3 % of writes").
func (h *IntervalHistogram) HotShare(regionFraction float64) float64 {
	if len(h.recs) == 0 {
		return 0
	}
	counts := make([]uint64, 0, len(h.recs))
	var total uint64
	for _, r := range h.recs {
		counts = append(counts, r.count)
		total += r.count
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	n := int(regionFraction * float64(h.totalRegions))
	if n > len(counts) {
		n = len(counts)
	}
	var hot uint64
	for _, c := range counts[:n] {
		hot += c
	}
	return float64(hot) / float64(total)
}

// Table renders rows of cells as fixed-width text, first row as header.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
