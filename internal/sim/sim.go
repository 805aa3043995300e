// Package sim is a deterministic discrete-event simulator for pipeline
// training schedules. A schedule is a list of Tasks, each bound to one
// serial resource (a worker's compute engine, one direction of a ring link,
// or the shared collective fabric) with explicit dependencies. A resource
// runs one task at a time; whenever it is idle it dispatches the
// lowest-numbered task whose dependencies have completed. Program order on
// a worker is expressed through dependencies (the schedule package chains
// every worker's compute ops), so compute engines execute their rank's
// program exactly while links stay free to relay whichever belt chunk
// arrives first.
package sim

import (
	"container/heap"
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

// event is a task completion.
type event struct {
	time float64
	id   int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// intHeap is a min-heap of task IDs (the per-resource ready set).
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Run executes the schedule and returns the timing result. It returns an
// error if the schedule deadlocks (a dependency cycle or a dependency on a
// missing task).
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

	depsLeft := make([]int, n)
	dependents := make([][]int, n)
	for _, t := range tasks {
		depsLeft[t.ID] = len(t.Deps)
		for _, d := range t.Deps {
			dependents[d] = append(dependents[d], t.ID)
		}
	}

	ready := make(map[string]*intHeap)
	busy := make(map[string]bool)
	start := make([]float64, n)
	end := make([]float64, n)
	started := make([]bool, n)

	var eh eventHeap
	now := 0.0
	startedCount := 0

	dispatch := func(res string) {
		if busy[res] {
			return
		}
		h := ready[res]
		if h == nil || h.Len() == 0 {
			return
		}
		id := heap.Pop(h).(int)
		start[id] = now
		end[id] = now + tasks[id].Dur
		started[id] = true
		busy[res] = true
		startedCount++
		heap.Push(&eh, event{time: end[id], id: id})
	}

	markReady := func(id int) {
		res := tasks[id].Resource
		h := ready[res]
		if h == nil {
			h = &intHeap{}
			ready[res] = h
		}
		heap.Push(h, id)
		dispatch(res)
	}

	for i := 0; i < n; i++ {
		if depsLeft[i] == 0 {
			markReady(i)
		}
	}

	for eh.Len() > 0 {
		e := heap.Pop(&eh).(event)
		now = e.time
		// Drain all completions at this timestamp before dispatching, so
		// simultaneous arrivals unlock dependents deterministically.
		completedRes := map[string]bool{}
		newlyReady := []int{}
		for {
			busy[tasks[e.id].Resource] = false
			completedRes[tasks[e.id].Resource] = true
			for _, dep := range dependents[e.id] {
				depsLeft[dep]--
				if depsLeft[dep] == 0 {
					newlyReady = append(newlyReady, dep)
				}
			}
			if eh.Len() == 0 || eh[0].time != now {
				break
			}
			e = heap.Pop(&eh).(event)
		}
		sort.Ints(newlyReady)
		for _, id := range newlyReady {
			res := tasks[id].Resource
			h := ready[res]
			if h == nil {
				h = &intHeap{}
				ready[res] = h
			}
			heap.Push(h, id)
			completedRes[res] = true
		}
		resList := make([]string, 0, len(completedRes))
		for r := range completedRes {
			resList = append(resList, r)
		}
		sort.Strings(resList)
		for _, r := range resList {
			dispatch(r)
		}
	}

	if startedCount != n {
		for i := 0; i < n; i++ {
			if !started[i] {
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
