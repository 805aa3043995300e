package sim

import (
	"math"
	"strings"
	"testing"
)

func mustRun(t *testing.T, tasks []Task) *Result {
	t.Helper()
	r, err := Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSerialChain(t *testing.T) {
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 1, Kind: "F"},
		{ID: 1, Resource: "w0", Worker: 0, Dur: 2, Deps: []int{0}, Kind: "F"},
		{ID: 2, Resource: "w0", Worker: 0, Dur: 3, Deps: []int{1}, Kind: "F"},
	}
	r := mustRun(t, tasks)
	if r.Makespan != 6 {
		t.Fatalf("makespan = %v", r.Makespan)
	}
	if r.BusyTime[0] != 6 {
		t.Fatalf("busy = %v", r.BusyTime[0])
	}
	if r.BubbleRatio() != 0 {
		t.Fatalf("bubble = %v", r.BubbleRatio())
	}
}

func TestParallelWorkers(t *testing.T) {
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 5, Kind: "F"},
		{ID: 1, Resource: "w1", Worker: 1, Dur: 3, Kind: "F"},
	}
	r := mustRun(t, tasks)
	if r.Makespan != 5 {
		t.Fatalf("makespan = %v", r.Makespan)
	}
	// worker 1 idles 2 of 5 → bubble (0+2)/(2·5) = 0.2
	if math.Abs(r.BubbleRatio()-0.2) > 1e-12 {
		t.Fatalf("bubble = %v", r.BubbleRatio())
	}
}

func TestResourceSerialisation(t *testing.T) {
	// Two independent tasks on one resource must run back to back.
	tasks := []Task{
		{ID: 0, Resource: "l0", Worker: -1, Dur: 2, Kind: "comm"},
		{ID: 1, Resource: "l0", Worker: -1, Dur: 2, Kind: "comm"},
	}
	r := mustRun(t, tasks)
	if r.Makespan != 4 {
		t.Fatalf("makespan = %v", r.Makespan)
	}
}

func TestCommOverlapsCompute(t *testing.T) {
	// A link transfer concurrent with compute on another resource.
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 1, Kind: "F"},
		{ID: 1, Resource: "l0", Worker: -1, Dur: 4, Deps: []int{0}, Kind: "comm"},
		{ID: 2, Resource: "w0", Worker: 0, Dur: 4, Deps: []int{0}, Kind: "F"},
		{ID: 3, Resource: "w1", Worker: 1, Dur: 1, Deps: []int{1}, Kind: "F"},
	}
	r := mustRun(t, tasks)
	// transfer runs 1→5 while w0 computes 1→5; w1 runs 5→6
	if r.Makespan != 6 {
		t.Fatalf("makespan = %v", r.Makespan)
	}
}

func TestResourceOrderIsIDOrder(t *testing.T) {
	// Task 0 on l0 comes first, so task 1 waits behind it even though it
	// is ready at once; task 0 waits on task 2, which waits (through task
	// 3) on task 1. The resource order contradicts the dependencies: a
	// cycle, reported as a deadlock of the lowest-numbered task.
	tasks := []Task{
		{ID: 0, Resource: "l0", Worker: -1, Dur: 1, Deps: []int{2}, Kind: "comm"},
		{ID: 1, Resource: "l0", Worker: -1, Dur: 1, Kind: "comm"},
		{ID: 2, Resource: "w0", Worker: 0, Dur: 5, Deps: []int{3}, Kind: "F"},
		{ID: 3, Resource: "w0", Worker: 0, Dur: 1, Deps: []int{1}, Kind: "F"},
	}
	_, err := Run(tasks)
	if err == nil || !strings.Contains(err.Error(), "task 0 ") {
		t.Fatalf("err = %v, want a deadlock naming task 0", err)
	}
}

func TestZeroDurationTasks(t *testing.T) {
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 0, Kind: "F"},
		{ID: 1, Resource: "w0", Worker: 0, Dur: 0, Deps: []int{0}, Kind: "F"},
		{ID: 2, Resource: "w0", Worker: 0, Dur: 1, Deps: []int{1}, Kind: "F"},
	}
	r := mustRun(t, tasks)
	if r.Makespan != 1 {
		t.Fatalf("makespan = %v", r.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Task {
		var tasks []Task
		for i := 0; i < 50; i++ {
			deps := []int{}
			if i >= 3 {
				deps = append(deps, i-3)
			}
			tasks = append(tasks, Task{
				ID: i, Resource: []string{"w0", "w1", "l0"}[i%3],
				Worker: i % 3, Dur: float64(i%7) * 0.1, Deps: deps, Kind: "F",
			})
		}
		return tasks
	}
	a := mustRun(t, mk())
	b := mustRun(t, mk())
	if a.Makespan != b.Makespan {
		t.Fatal("nondeterministic makespan")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Start != b.Tasks[i].Start || a.Tasks[i].ID != b.Tasks[i].ID {
			t.Fatal("nondeterministic schedule")
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 1, Deps: []int{1}},
		{ID: 1, Resource: "w0", Worker: 0, Dur: 1, Deps: []int{0}},
	}
	if _, err := Run(tasks); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Run([]Task{{ID: 1}}); err == nil {
		t.Fatal("bad ID accepted")
	}
	if _, err := Run([]Task{{ID: 0, Dur: -1}}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := Run([]Task{{ID: 0, Deps: []int{5}}}); err == nil {
		t.Fatal("missing dep accepted")
	}
	if _, err := Run([]Task{{ID: 0, Deps: []int{0}}}); err == nil {
		t.Fatal("self dep accepted")
	}
}

func TestWorkerTimelineFiltersComm(t *testing.T) {
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 1, Kind: "F", Label: "f"},
		{ID: 1, Resource: "l0", Worker: -1, Dur: 1, Kind: "comm", Deps: []int{0}},
		{ID: 2, Resource: "w0", Worker: 0, Dur: 1, Kind: "B", Deps: []int{1}, Label: "b"},
	}
	r := mustRun(t, tasks)
	tl := r.WorkerTimeline(0)
	if len(tl) != 2 || tl[0].Label != "f" || tl[1].Label != "b" {
		t.Fatalf("timeline = %+v", tl)
	}
}

// Property-ish test: a classic 1F1B-shaped pipeline of P stages and N
// microbatches should have makespan ≈ (P−1+N)·(tF+tB) when comm is free.
func TestPipelineMakespanFormula(t *testing.T) {
	const P, N = 4, 8
	tF, tB := 1.0, 2.0
	var tasks []Task
	id := 0
	fid := make([][]int, P)
	bid := make([][]int, P)
	for r := 0; r < P; r++ {
		fid[r] = make([]int, N)
		bid[r] = make([]int, N)
	}
	add := func(res string, w int, dur float64, deps []int) int {
		tasks = append(tasks, Task{ID: id, Resource: res, Worker: w, Dur: dur, Deps: deps, Kind: "F"})
		id++
		return id - 1
	}
	for r := 0; r < P; r++ {
		var prev = -1
		warm := P - 1 - r
		prog := func(dur float64) int {
			deps := []int{}
			if prev >= 0 {
				deps = append(deps, prev)
			}
			prev = add("w"+string(rune('0'+r)), r, dur, deps)
			return prev
		}
		emitF := func(m int) { fid[r][m] = prog(tF) }
		emitB := func(m int) { bid[r][m] = prog(tB) }
		for m := 0; m < warm; m++ {
			emitF(m)
		}
		for m := warm; m < N; m++ {
			emitF(m)
			emitB(m - warm)
		}
		for m := N - warm; m < N; m++ {
			emitB(m)
		}
	}
	// cross-rank dataflow deps (wired after creation, as schedule.Build does)
	for r := 1; r < P; r++ {
		for m := 0; m < N; m++ {
			tasks[fid[r][m]].Deps = append(tasks[fid[r][m]].Deps, fid[r-1][m])
		}
	}
	for r := 0; r < P-1; r++ {
		for m := 0; m < N; m++ {
			tasks[bid[r][m]].Deps = append(tasks[bid[r][m]].Deps, bid[r+1][m])
		}
	}
	r := mustRun(t, tasks)
	ideal := float64(N) * (tF + tB)
	upper := ideal + float64(P-1)*(tF+tB) + 1e-9
	if r.Makespan < ideal || r.Makespan > upper {
		t.Fatalf("makespan %v outside [%v, %v]", r.Makespan, ideal, upper)
	}
	// bubble ratio ≈ (P−1)/(N+P−1)
	want := float64(P-1) / float64(N+P-1)
	if math.Abs(r.BubbleRatio()-want) > 0.05 {
		t.Fatalf("bubble %v, want ≈ %v", r.BubbleRatio(), want)
	}
}
