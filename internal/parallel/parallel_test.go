package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"statcube/internal/obs"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		limit, tasks, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{4, 2, 2},
		{8, 0, 1},
		{-1, 3, min(3, runtime.GOMAXPROCS(0))},
		{1, 100, 1},
	}
	for _, c := range cases {
		if got := Workers(c.limit, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.limit, c.tasks, got, c.want)
		}
	}
}

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 1000
		counts := make([]int32, n)
		st := Stage{Name: "test", Workers: workers}
		if err := st.ForEach(n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachError(t *testing.T) {
	boom := errors.New("boom")
	st := Stage{Name: "test", Workers: 1}
	err := st.ForEach(10, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sequential error = %v, want %v", err, boom)
	}
}

// TestForEachCancellation checks that the first error stops workers from
// claiming queued tasks: with the failing task early in a long queue, far
// fewer than n tasks should execute.
func TestForEachCancellation(t *testing.T) {
	boom := errors.New("boom")
	const n = 100000
	var ran atomic.Int64
	st := Stage{Name: "test", Workers: 4}
	err := st.ForEach(n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d tasks ran; cancellation never kicked in", got)
	} else {
		t.Logf("ran %d of %d tasks before cancellation", got, n)
	}
}

func TestMapReturnsIndexOrder(t *testing.T) {
	st := Stage{Name: "test", Workers: 8}
	out, err := Map(st, 500, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := Map(st, 10, func(i int) (int, error) {
		return 0, fmt.Errorf("fail %d", i)
	}); err == nil {
		t.Fatal("Map swallowed the error")
	}
}

func TestStageMetricsAndSpan(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := obs.Default().Snapshot()
	root := obs.NewSpan("root")
	st := Stage{Name: "metrics-test", Workers: 4, Span: root}
	if err := st.ForEach(100, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	seq := Stage{Name: "metrics-test", Workers: 1, Span: root}
	if err := seq.ForEach(5, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.End()
	d := obs.Default().Snapshot().Sub(before)
	if d.Counters["parallel.stages_parallel"] != 1 {
		t.Errorf("stages_parallel delta = %d, want 1", d.Counters["parallel.stages_parallel"])
	}
	if d.Counters["parallel.stages_sequential"] != 1 {
		t.Errorf("stages_sequential delta = %d, want 1", d.Counters["parallel.stages_sequential"])
	}
	if d.Counters["parallel.tasks"] != 105 {
		t.Errorf("tasks delta = %d, want 105", d.Counters["parallel.tasks"])
	}
	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("span children = %d, want 2", len(kids))
	}
	if kids[0].Name() != "parallel:metrics-test" || kids[1].Name() != "sequential:metrics-test" {
		t.Errorf("span children = %q, %q", kids[0].Name(), kids[1].Name())
	}
	if tasks, ok := kids[0].IntAttr("tasks"); !ok || tasks != 100 {
		t.Errorf("parallel child tasks attr = %d, %v", tasks, ok)
	}
}
