// Package sim is a deterministic simulator for pipeline training schedules.
// A schedule is a list of Tasks, each bound to one serial resource (a
// worker's compute engine, one direction of a ring link, or the shared
// collective fabric) with explicit dependencies. A resource runs its tasks
// one at a time in ascending ID order, the order its sender issues them: the
// schedule package appends a worker's compute in program order and a link's
// transfers in the order the runtime sends them. A task starts once its
// dependencies and the task before it on its resource have ended, so the
// schedule is a longest-path computation, and it is monotone: a longer task
// or an extra dependency never makes the makespan shorter, and a task taken
// out never makes it longer.
package sim

import (
	"fmt"
	"sort"
)

// Task is one unit of occupancy of a serial resource.
type Task struct {
	// ID must be the task's index in the schedule slice.
	ID int
	// Resource names the serial engine this task occupies. Conventions
	// used by the schedule package: "w<i>" compute engines, "l<i>" the
	// ring link i→i+1, "r<i>" the reverse direction of link i, "fabric"
	// the shared collective fabric.
	Resource string
	// Worker is the worker this task's time is accounted to, or -1 for
	// pure communication tasks.
	Worker int
	// Dur is the task duration in seconds (≥ 0).
	Dur float64
	// Deps lists task IDs that must complete before this task starts.
	Deps []int
	// Kind is a short class tag ("F", "B", "W", "comm", "coll") used by
	// traces and the bubble accounting.
	Kind string
	// Label is a human-readable description for timelines.
	Label string
	// Bytes is the wire payload of a point-to-point transfer task (0 for
	// compute and collective tasks). The simulator ignores it; the
	// schedule package's traffic accounting classifies it by link tier.
	Bytes float64
	// Span is how many consecutive ring links, from the resource's own, a
	// point-to-point transfer bridges (0 means 1): a gradient hop past a
	// chunk's owner spans two, and crosses a group boundary when either does.
	Span int
}

// ScheduledTask is a task with its simulated start and end times.
type ScheduledTask struct {
	Task
	Start float64
	End   float64
}

// Result is the outcome of running a schedule.
type Result struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// BusyTime[w] is the total compute occupancy of worker w (tasks with
	// Worker == w and a non-communication kind).
	BusyTime map[int]float64
	// Tasks holds every task with its schedule, in start-time order.
	Tasks []ScheduledTask
}

// BubbleRatio returns the idle fraction of the workers' compute engines
// over the makespan: 1 − Σ busy / (workers · makespan). The sum runs in
// ascending worker order, not map order, so the ratio is reproducible to
// the last bit and regenerated reports (BENCH_sweep.json) diff clean.
func (r *Result) BubbleRatio() float64 {
	if r.Makespan == 0 || len(r.BusyTime) == 0 {
		return 0
	}
	workers := make([]int, 0, len(r.BusyTime))
	for w := range r.BusyTime {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	var busy float64
	for _, w := range workers {
		busy += r.BusyTime[w]
	}
	return 1 - busy/(float64(len(r.BusyTime))*r.Makespan)
}

// WorkerTimeline returns worker w's compute tasks in start order.
func (r *Result) WorkerTimeline(w int) []ScheduledTask {
	var out []ScheduledTask
	for _, t := range r.Tasks {
		if t.Worker == w && t.Kind != "comm" && t.Kind != "coll" {
			out = append(out, t)
		}
	}
	return out
}

// Run computes the schedule's start and end times and returns the result.
// Every resource runs its tasks in ascending ID order, and a task starts when
// both its last dependency and the task before it on its resource have
// ended, so the times are one longest-path pass over the dependencies and the
// resources' chains. It returns an error for a dependency on a missing task
// and for a cycle — the deadlock error, which a dependency that its
// resource's order contradicts also makes.
func Run(tasks []Task) (*Result, error) {
	n := len(tasks)
	for i, t := range tasks {
		if t.ID != i {
			return nil, fmt.Errorf("sim: task %d has ID %d (must equal its index)", i, t.ID)
		}
		if t.Dur < 0 {
			return nil, fmt.Errorf("sim: task %d has negative duration", i)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("sim: task %d depends on missing task %d", i, d)
			}
			if d == i {
				return nil, fmt.Errorf("sim: task %d depends on itself", i)
			}
		}
	}

	// waits[i] counts the tasks i starts after that have not ended: its
	// dependencies and its resource's previous task.
	waits := make([]int, n)
	next := make([][]int, n)
	lastOn := make(map[string]int)
	for i, t := range tasks {
		if prev, ok := lastOn[t.Resource]; ok {
			next[prev] = append(next[prev], i)
			waits[i]++
		}
		lastOn[t.Resource] = i
		for _, d := range t.Deps {
			next[d] = append(next[d], i)
			waits[i]++
		}
	}
	start := make([]float64, n)
	end := make([]float64, n)
	ready := make([]int, 0, n)
	for i := range waits {
		if waits[i] == 0 {
			ready = append(ready, i)
		}
	}
	for k := 0; k < len(ready); k++ {
		i := ready[k]
		end[i] = start[i] + tasks[i].Dur
		for _, s := range next[i] {
			start[s] = max(start[s], end[i])
			if waits[s]--; waits[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(ready) < n {
		for i := range waits {
			if waits[i] > 0 {
				return nil, fmt.Errorf("sim: deadlock — task %d (%s on %s) never started",
					i, tasks[i].Label, tasks[i].Resource)
			}
		}
	}

	res := &Result{BusyTime: make(map[int]float64)}
	for i, t := range tasks {
		if end[i] > res.Makespan {
			res.Makespan = end[i]
		}
		if t.Worker >= 0 && t.Kind != "comm" && t.Kind != "coll" {
			res.BusyTime[t.Worker] += t.Dur
		}
		res.Tasks = append(res.Tasks, ScheduledTask{Task: t, Start: start[i], End: end[i]})
	}
	sort.Slice(res.Tasks, func(i, j int) bool {
		if res.Tasks[i].Start != res.Tasks[j].Start {
			return res.Tasks[i].Start < res.Tasks[j].Start
		}
		return res.Tasks[i].ID < res.Tasks[j].ID
	})
	return res, nil
}
