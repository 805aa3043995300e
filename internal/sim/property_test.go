package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"weipipe/internal/tensor"
)

// randomDAG builds a random but valid schedule: tasks may only depend on
// lower-numbered tasks, resources drawn from a small pool.
func randomDAG(rng *tensor.RNG, n int) []Task {
	resources := []string{"w0", "w1", "w2", "l0", "l1", "fabric"}
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		var deps []int
		for d := 0; d < i && d < 3; d++ {
			if rng.Float64() < 0.3 {
				deps = append(deps, rng.Intn(i))
			}
		}
		res := resources[rng.Intn(len(resources))]
		worker := -1
		if res[0] == 'w' {
			worker = int(res[1] - '0')
		}
		tasks[i] = Task{
			ID: i, Resource: res, Worker: worker,
			Dur: rng.Float64(), Deps: deps, Kind: "F",
		}
	}
	return tasks
}

// Property: every random DAG schedules (no spurious deadlocks), start times
// respect dependencies, and same-resource tasks never overlap.
func TestRandomDAGsScheduleConsistently(t *testing.T) {
	f := func(seed uint64, szRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		n := int(szRaw%40) + 2
		tasks := randomDAG(rng, n)
		res, err := Run(tasks)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		byID := make(map[int]ScheduledTask, n)
		for _, st := range res.Tasks {
			byID[st.ID] = st
		}
		// dependency order
		for _, st := range res.Tasks {
			for _, d := range st.Deps {
				if byID[d].End > st.Start+1e-12 {
					t.Logf("task %d starts %.6f before dep %d ends %.6f", st.ID, st.Start, d, byID[d].End)
					return false
				}
			}
		}
		// per-resource mutual exclusion
		perRes := map[string][]ScheduledTask{}
		for _, st := range res.Tasks {
			perRes[st.Resource] = append(perRes[st.Resource], st)
		}
		for _, list := range perRes {
			for i := 1; i < len(list); i++ {
				if list[i].Start < list[i-1].End-1e-12 {
					t.Logf("overlap on %s: [%f,%f) then [%f,%f)",
						list[i].Resource, list[i-1].Start, list[i-1].End, list[i].Start, list[i].End)
					return false
				}
			}
		}
		// makespan ≥ any task's duration and ≥ any end time
		for _, st := range res.Tasks {
			if st.End > res.Makespan+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the makespan respects the classical list-scheduling bounds —
// at least the critical path and the busiest resource's load, at most the
// critical path plus the total work.
func TestMakespanWithinGrahamBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		tasks := randomDAG(rng, 25)
		res, err := Run(tasks)
		if err != nil {
			return false
		}
		// critical path via longest path over deps
		cp := make([]float64, len(tasks))
		var maxCP, totalWork float64
		resourceLoad := map[string]float64{}
		for i, task := range tasks {
			best := 0.0
			for _, d := range task.Deps {
				if cp[d] > best {
					best = cp[d]
				}
			}
			cp[i] = best + task.Dur
			if cp[i] > maxCP {
				maxCP = cp[i]
			}
			totalWork += task.Dur
			resourceLoad[task.Resource] += task.Dur
		}
		maxLoad := 0.0
		for _, l := range resourceLoad {
			if l > maxLoad {
				maxLoad = l
			}
		}
		lower := maxCP
		if maxLoad > lower {
			lower = maxLoad
		}
		upper := maxCP + totalWork
		return res.Makespan >= lower-1e-9 && res.Makespan <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: lengthening one task never shortens the makespan. A simulator
// that dispatched whichever ready task comes first would fail this: a longer
// task reorders its resource's queue, which can shorten the schedule
// (Graham's scheduling anomalies). Fixed resource orders make the makespan a
// longest path, which no longer task can shorten.
func TestLongerTaskNeverShortensMakespan(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		rng := tensor.NewRNG(seed)
		tasks := randomDAG(rng, 25)
		base, err := Run(tasks)
		if err != nil {
			return false
		}
		tasks[int(pick)%len(tasks)].Dur += rng.Float64()
		longer, err := Run(tasks)
		if err != nil {
			return false
		}
		if longer.Makespan < base.Makespan {
			t.Logf("seed %d: task %d longer, makespan %v → %v", seed, int(pick)%len(tasks), base.Makespan, longer.Makespan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: deleting a task, its dependents taking over its dependencies,
// never lengthens the makespan — the simulator-level form of "a schedule
// that sends one message fewer is never slower".
func TestDeletedTaskNeverLengthensMakespan(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		rng := tensor.NewRNG(seed)
		tasks := randomDAG(rng, 25)
		base, err := Run(tasks)
		if err != nil {
			return false
		}
		k := int(pick) % len(tasks)
		fewer := deleteTask(tasks, k)
		after, err := Run(fewer)
		if err != nil {
			t.Logf("seed %d: without task %d: %v", seed, k, err)
			return false
		}
		if after.Makespan > base.Makespan {
			t.Logf("seed %d: without task %d, makespan %v → %v", seed, k, base.Makespan, after.Makespan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// deleteTask returns tasks without task k, renumbered: a task that depended
// on k depends on k's dependencies instead.
func deleteTask(tasks []Task, k int) []Task {
	renum := func(d int) int {
		if d > k {
			return d - 1
		}
		return d
	}
	out := make([]Task, 0, len(tasks)-1)
	for _, t := range tasks {
		if t.ID == k {
			continue
		}
		var deps []int
		for _, d := range t.Deps {
			if d == k {
				for _, dk := range tasks[k].Deps {
					deps = append(deps, renum(dk))
				}
				continue
			}
			deps = append(deps, renum(d))
		}
		t.ID, t.Deps = renum(t.ID), deps
		out = append(out, t)
	}
	return out
}

// Property: the bubble ratio is always in [0, 1).
func TestBubbleRatioBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		tasks := randomDAG(rng, 25)
		res, err := Run(tasks)
		if err != nil {
			return false
		}
		br := res.BubbleRatio()
		return br >= 0 && br < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
