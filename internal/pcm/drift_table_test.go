package pcm

import (
	"math"
	"testing"

	"rrmpcm/internal/timing"
)

// TestDriftTableMatchesModel checks that memoization changes nothing: every
// table entry equals the value the model computes on the fly.
func TestDriftTableMatchesModel(t *testing.T) {
	m := DefaultDriftModel()
	tab, err := m.Table()
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	if tab.Model() != m {
		t.Errorf("Model() = %+v, want %+v", tab.Model(), m)
	}
	for _, mode := range Modes() {
		sets := mode.Sets()
		wantG, err := m.Guardband(sets)
		if err != nil {
			t.Fatalf("model Guardband(%d): %v", sets, err)
		}
		gotG, err := tab.Guardband(sets)
		if err != nil {
			t.Fatalf("table Guardband(%d): %v", sets, err)
		}
		if gotG != wantG {
			t.Errorf("Guardband(%d) = %v, want %v", sets, gotG, wantG)
		}
		wantR, err := m.Retention(sets)
		if err != nil {
			t.Fatalf("model Retention(%d): %v", sets, err)
		}
		gotR, err := tab.Retention(sets)
		if err != nil {
			t.Fatalf("table Retention(%d): %v", sets, err)
		}
		if gotR != wantR {
			t.Errorf("Retention(%d) = %v, want %v", sets, gotR, wantR)
		}
	}
}

// TestDriftTableExpired checks the integer-compare Expired agrees with the
// drift law away from the float-rounding boundary, and that out-of-range
// SET counts fail safe (expired).
func TestDriftTableExpired(t *testing.T) {
	tab := DefaultDriftTable()
	m := tab.Model()
	for _, mode := range Modes() {
		sets := mode.Sets()
		ret, err := tab.Retention(sets)
		if err != nil {
			t.Fatalf("Retention(%d): %v", sets, err)
		}
		for _, tc := range []struct {
			at   timing.Time
			want bool
		}{
			{0, false},
			{ret / 2, false},
			{ret, false},
			{ret + ret/100, true},
			{2 * ret, true},
		} {
			if got := tab.Expired(sets, tc.at); got != tc.want {
				t.Errorf("%v: table Expired(%d, %v) = %v, want %v", mode, sets, tc.at, got, tc.want)
			}
		}
		// Spot-check agreement with the un-memoized law at points safely
		// off the deadline (truncating float->int64 can move the exact
		// boundary by a few picoseconds, which no simulation observes).
		for _, at := range []timing.Time{ret / 4, ret / 2, 2 * ret, 10 * ret} {
			if tab.Expired(sets, at) != m.Expired(sets, at) {
				t.Errorf("%v: table and model disagree at t=%v", mode, at)
			}
		}
	}
	if !tab.Expired(2, timing.Second) || !tab.Expired(99, timing.Second) {
		t.Error("out-of-range SET counts must report expired")
	}
	if _, err := tab.Guardband(2); err == nil {
		t.Error("Guardband(2) should error")
	}
	if _, err := tab.Retention(8); err == nil {
		t.Error("Retention(8) should error")
	}
}

// TestDefaultDriftTableStable checks the package-level table is memoized
// (same values on repeated calls) and matches a fresh derivation.
func TestDefaultDriftTableStable(t *testing.T) {
	a, b := DefaultDriftTable(), DefaultDriftTable()
	if a != b {
		t.Error("DefaultDriftTable not stable across calls")
	}
	fresh, err := DefaultDriftModel().Table()
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	if a != fresh {
		t.Error("DefaultDriftTable differs from a fresh derivation")
	}
}

// BenchmarkDriftExpired compares the memoized predicate against the
// power-law evaluation it replaces.
func BenchmarkDriftExpired(b *testing.B) {
	tab := DefaultDriftTable()
	m := tab.Model()
	at := Retention(Mode3SETs) / 2
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		sink := false
		for i := 0; i < b.N; i++ {
			sink = tab.Expired(3, at)
		}
		_ = sink
	})
	b.Run("model", func(b *testing.B) {
		b.ReportAllocs()
		sink := false
		for i := 0; i < b.N; i++ {
			sink = m.Expired(3, at)
		}
		_ = sink
	})
}

// TestDriftTableBitErrorProbMatchesModel checks the hoisted fault-injection
// path against its reference, the model's direct evaluation: both are
// exactly 0 up to the retention deadline, and past it they agree to a
// relative 1e-12 (the table multiplies by hoisted reciprocals where the
// model divides). Out-of-range SET counts are an error in the model and
// probability 1 in the table.
func TestDriftTableBitErrorProbMatchesModel(t *testing.T) {
	tab := DefaultDriftTable()
	m := tab.Model()
	const steps = 16 // grid points per retention period
	for _, mode := range Modes() {
		sets := mode.Sets()
		ret, err := tab.Retention(sets)
		if err != nil {
			t.Fatalf("Retention(%d): %v", sets, err)
		}
		for k := 0; k <= 10*steps; k++ {
			el := ret / steps * timing.Time(k)
			want, err := m.BitErrorProb(sets, el)
			if err != nil {
				t.Fatalf("model BitErrorProb(%d, %v): %v", sets, el, err)
			}
			got := tab.BitErrorProb(sets, el)
			if el <= ret {
				if got != 0 || want != 0 {
					t.Errorf("mode %v at %v (retention %v): table %g, model %g, want exact 0",
						mode, el, ret, got, want)
				}
				continue
			}
			if want <= 0 || math.Abs(got-want) > 1e-12*want {
				t.Errorf("mode %v at %v: table %.17g, model %.17g (rel tol 1e-12)", mode, el, got, want)
			}
		}
	}
	for _, sets := range []int{Fastest.Sets() - 1, Slowest.Sets() + 1} {
		if _, err := m.BitErrorProb(sets, timing.Second); err == nil {
			t.Errorf("model BitErrorProb(%d): want error", sets)
		}
		if p := tab.BitErrorProb(sets, timing.Second); p != 1 {
			t.Errorf("table BitErrorProb(%d) = %g, want 1", sets, p)
		}
	}
}
