package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"cchunter/internal/stats"
)

func mkTrain(cycles ...uint64) *Train {
	t := NewTrain(len(cycles))
	for _, c := range cycles {
		t.Append(Event{Cycle: c, Kind: KindBusLock, Actor: 1, Victim: NoContext})
	}
	return t
}

func TestKindString(t *testing.T) {
	if KindBusLock.String() != "bus-lock" ||
		KindDivContention.String() != "div-contention" ||
		KindConflictMiss.String() != "conflict-miss" ||
		KindRingContention.String() != "ring-contention" ||
		KindTLBConflict.String() != "tlb-conflict" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include numeric value")
	}
	if NumKinds() != 5 {
		t.Errorf("NumKinds = %d", NumKinds())
	}
}

func TestAppendMonotonic(t *testing.T) {
	tr := mkTrain(5, 5, 9)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	tr.Append(Event{Cycle: 3})
}

func TestSpan(t *testing.T) {
	if f, l := NewTrain(0).Span(); f != 0 || l != 0 {
		t.Error("empty span should be (0,0)")
	}
	if f, l := mkTrain(3, 8, 20).Span(); f != 3 || l != 20 {
		t.Errorf("span = (%d,%d)", f, l)
	}
}

func TestWindow(t *testing.T) {
	tr := mkTrain(0, 10, 20, 30, 40)
	w := tr.Window(10, 30)
	if w.Len() != 2 || w.At(0).Cycle != 10 || w.At(1).Cycle != 20 {
		t.Errorf("window events: %v", w.Events())
	}
	if tr.Window(100, 200).Len() != 0 {
		t.Error("window past end should be empty")
	}
	if tr.Window(20, 20).Len() != 0 {
		t.Error("empty range should be empty")
	}
}

func TestWindowBoundaries(t *testing.T) {
	empty := NewTrain(0)
	if w := empty.Window(0, 100); w.Len() != 0 {
		t.Errorf("empty train window: %v", w.Events())
	}
	if w := empty.Window(0, 0); w.Len() != 0 {
		t.Error("empty train, empty range: non-empty window")
	}

	tr := mkTrain(5, 5, 5, 9, 12, 12)
	// start == end on an occupied cycle selects nothing.
	if w := tr.Window(5, 5); w.Len() != 0 {
		t.Errorf("start==end window: %v", w.Events())
	}
	// A window past the last event is empty even when start is in range.
	if w := tr.Window(13, 1000); w.Len() != 0 {
		t.Errorf("window past last event: %v", w.Events())
	}
	// Ties: searchCycle must land on the *first* of an equal run, so a
	// window starting at a duplicated cycle takes the whole run...
	if w := tr.Window(5, 9); w.Len() != 3 {
		t.Errorf("window at duplicated start took %d events, want 3", w.Len())
	}
	// ...and a window ending at one excludes the whole run.
	if w := tr.Window(9, 12); w.Len() != 1 || w.At(0).Cycle != 9 {
		t.Errorf("window ending at duplicated cycle: %v", w.Events())
	}
	// Half-open on both sides: end equal to the last cycle excludes it.
	if w := tr.Window(0, 12); w.Len() != 4 {
		t.Errorf("end at last cycle took %d events, want 4", w.Len())
	}
}

func TestSearchCycleFirstOfEqualRun(t *testing.T) {
	events := mkTrain(1, 3, 3, 3, 7, 7).events
	cases := []struct {
		c    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 4}, {7, 4}, {8, 6},
	}
	for _, tc := range cases {
		if got := searchCycle(events, tc.c); got != tc.want {
			t.Errorf("searchCycle(%d) = %d, want %d", tc.c, got, tc.want)
		}
	}
	if got := searchCycle(nil, 5); got != 0 {
		t.Errorf("searchCycle on empty slice = %d, want 0", got)
	}
}

func TestDensitiesBoundaries(t *testing.T) {
	if got := NewTrain(0).Densities(0, 40, 10, false); len(got) != 4 {
		t.Errorf("empty train densities: %v", got)
	}
	tr := mkTrain(10, 10, 10, 25)
	// All events before start / after end contribute nothing.
	if got := tr.Densities(30, 50, 10, false); got[0] != 0 || got[1] != 0 {
		t.Errorf("densities past last event: %v", got)
	}
	// A duplicated cycle exactly at start lands fully in window 0.
	if got := tr.Densities(10, 30, 10, false); got[0] != 3 || got[1] != 1 {
		t.Errorf("densities with tied start cycle: %v", got)
	}
	// An event exactly at end is excluded (half-open range).
	if got := tr.Densities(0, 25, 5, false); got[2] != 3 || got[4] != 0 {
		t.Errorf("densities with event at end: %v", got)
	}
}

func TestFilterKind(t *testing.T) {
	tr := NewTrain(0)
	tr.Append(Event{Cycle: 1, Kind: KindBusLock, Actor: 0})
	tr.Append(Event{Cycle: 2, Kind: KindConflictMiss, Actor: 1})
	tr.Append(Event{Cycle: 3, Kind: KindBusLock, Actor: 1})
	if got := tr.FilterKind(KindBusLock).Len(); got != 2 {
		t.Errorf("FilterKind len = %d", got)
	}
}

func TestDensities(t *testing.T) {
	tr := mkTrain(0, 1, 2, 10, 11, 25)
	// Windows of 10 over [0, 30): [0,10)=3, [10,20)=2, [20,30)=1.
	got := tr.Densities(0, 30, 10, false)
	if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Errorf("densities = %v", got)
	}
	// Partial window [20, 26) excluded vs included.
	if got := tr.Densities(0, 26, 10, false); len(got) != 2 {
		t.Errorf("partial excluded: %v", got)
	}
	if got := tr.Densities(0, 26, 10, true); len(got) != 3 || got[2] != 1 {
		t.Errorf("partial included: %v", got)
	}
	if got := tr.Densities(5, 5, 10, true); got != nil {
		t.Errorf("empty range: %v", got)
	}
}

func TestDensitiesPanicsOnZeroDt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dt=0 should panic")
		}
	}()
	mkTrain(1).Densities(0, 10, 0, false)
}

func TestDensitiesSumInvariant(t *testing.T) {
	// Property: the densities over a full multiple-of-dt range sum to
	// the number of in-range events.
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := NewTrain(0)
		var c uint64
		n := r.Intn(300)
		for i := 0; i < n; i++ {
			c += uint64(r.Intn(50))
			tr.Append(Event{Cycle: c})
		}
		dt := uint64(1 + r.Intn(100))
		end := (c/dt + 1) * dt
		ds := tr.Densities(0, end, dt, false)
		sum := 0
		for _, d := range ds {
			sum += d
		}
		return sum == tr.Window(0, end).Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInterEventIntervals(t *testing.T) {
	if mkTrain(7).InterEventIntervals() != nil {
		t.Error("single event should give nil")
	}
	got := mkTrain(0, 3, 10).InterEventIntervals()
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("intervals = %v", got)
	}
}

func TestRecorderFilters(t *testing.T) {
	r := NewRecorder(KindBusLock)
	r.OnEvent(Event{Cycle: 1, Kind: KindBusLock})
	r.OnEvent(Event{Cycle: 2, Kind: KindConflictMiss})
	if r.Train().Len() != 1 {
		t.Errorf("filtered recorder len = %d", r.Train().Len())
	}
}

func TestTeeAndListenerFunc(t *testing.T) {
	var count int
	a := NewRecorder()
	tee := Tee{a, ListenerFunc(func(Event) { count++ })}
	tee.OnEvent(Event{Cycle: 1})
	tee.OnEvent(Event{Cycle: 2})
	if a.Train().Len() != 2 || count != 2 {
		t.Errorf("tee fanned out %d/%d", a.Train().Len(), count)
	}
}

func TestWriteCSV(t *testing.T) {
	tr := NewTrain(0)
	tr.Append(Event{Cycle: 1, Kind: KindConflictMiss, Actor: 2, Victim: 3, Unit: 7})
	tr.Append(Event{Cycle: 2, Kind: KindBusLock, Actor: 1, Victim: NoContext})
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "cycle,kind,actor,victim,unit\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "1,conflict-miss,2,3,7") {
		t.Errorf("missing row: %q", out)
	}
	if !strings.Contains(out, "2,bus-lock,1,,0") {
		t.Errorf("victimless row wrong: %q", out)
	}
}

func TestASCIITrain(t *testing.T) {
	if mkTrain().ASCIITrain(10) != "" {
		t.Error("empty train should render empty")
	}
	out := mkTrain(0, 1, 2, 3, 100).ASCIITrain(20)
	if len(out) != 20 {
		t.Errorf("width = %d", len(out))
	}
	if out[0] == ' ' || out[len(out)-1] == ' ' {
		t.Errorf("expected marks at both ends: %q", out)
	}
	if !strings.Contains(out, " ") {
		t.Errorf("expected gap in the middle: %q", out)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, "lag", "acf", []float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lag,acf\n0,1\n1,0.5\n") {
		t.Errorf("csv = %q", sb.String())
	}
}
