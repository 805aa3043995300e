// Package launch is the cross-process elastic training harness: a rank
// supervisor (RunSupervisor) that spawns one OS process per rank, watches
// them over a JSON-lines control channel, executes seeded fault schedules
// against them (SIGKILL, SIGSTOP stalls, timed partitions), and drives the
// cluster through repair incarnations — spare admission, shrink to p−1, or
// checkpoint restart — with every incarnation fenced by a fresh epoch and
// a fresh TCP mesh. Every run is one pipeline.RunSpec, of any strategy. The
// worker side (RunWorker) is a thin loop around pipeline.RunRank: it holds
// the harvested repair snapshot between incarnations and reports outcomes
// back.
//
// The control protocol is deliberately boring: newline-delimited JSON over
// one TCP connection per worker. The supervisor never carries training
// state — snapshots live in the worker processes (survivors keep theirs,
// spares are seeded over the data mesh by rank 0) or on disk (checkpoint
// restart) — so control messages stay small regardless of model size.
package launch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"weipipe/internal/pipeline"
)

// envWorker marks a spawned process as a launch worker; the re-exec'ed
// binary (weipipe-launch or a test binary's TestMain) checks it before
// flag parsing and calls RunWorker instead of its normal main.
const (
	envWorker  = "WEIPIPE_LAUNCH_WORKER"
	envSupAddr = "WEIPIPE_LAUNCH_SUP"
	envWorkID  = "WEIPIPE_LAUNCH_ID"
	// envBackend carries the supervisor's tensor backend to every worker:
	// left alone, each process would pick by its own CPUID.
	envBackend = "WEIPIPE_LAUNCH_BACKEND"
)

// Msg is the single wire envelope; Type selects which fields matter.
type Msg struct {
	Type string `json:"type"`

	// hello (worker → supervisor); Backend is the worker's tensor backend.
	ID      int    `json:"id,omitempty"`
	PID     int    `json:"pid,omitempty"`
	Backend string `json:"backend,omitempty"`

	// progress (worker → supervisor): one per completed iteration. State
	// names an epoch's policy and a fault's action in the supervisor's log.
	Epoch uint32 `json:"epoch,omitempty"`
	Iter  int    `json:"iter,omitempty"`
	State string `json:"state,omitempty"`

	// result (worker → supervisor)
	Done     bool      `json:"done,omitempty"`
	Aborted  bool      `json:"aborted,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	Cut      int       `json:"cut,omitempty"`
	Dead     []int     `json:"dead,omitempty"`
	SnapHash string    `json:"snapHash,omitempty"`
	WHash    string    `json:"wHash,omitempty"`
	Losses   []float64 `json:"losses,omitempty"`

	// assign (supervisor → worker)
	Rank      int      `json:"rank,omitempty"`
	World     int      `json:"world,omitempty"`
	Addrs     []string `json:"addrs,omitempty"`
	StartIter int      `json:"startIter,omitempty"`
	SeedFrom  *int     `json:"seedFrom,omitempty"`
	SeedTo    []int    `json:"seedTo,omitempty"`
	FromCkpt  bool     `json:"fromCkpt,omitempty"`
	// Spec is the run, identical across every incarnation: the supervisor
	// resends it with each assignment, so workers stay stateless between
	// runs.
	Spec *pipeline.RunSpec `json:"spec,omitempty"`

	// partition (supervisor → worker): blackhole the worker's live links
	// toward Peers for Dur — nothing leaves those links, modelling a
	// one-sided network partition.
	Peers []int         `json:"peers,omitempty"`
	Dur   time.Duration `json:"dur,omitempty"`

	// exit (supervisor → worker) carries nothing extra.
}

// codec wraps one control connection with line-framed JSON and a write
// lock (the worker writes progress from the training goroutine and
// results from its main loop).
type codec struct {
	conn net.Conn
	rd   *bufio.Reader
	wmu  sync.Mutex
}

func newCodec(conn net.Conn) *codec {
	return &codec{conn: conn, rd: bufio.NewReader(conn)}
}

func (c *codec) send(m Msg) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err = c.conn.Write(append(raw, '\n'))
	return err
}

func (c *codec) recv() (Msg, error) {
	line, err := c.rd.ReadBytes('\n')
	if err != nil {
		return Msg{}, err
	}
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		return Msg{}, fmt.Errorf("launch: malformed control message %q: %w", line, err)
	}
	return m, nil
}

func (c *codec) close() { c.conn.Close() }
