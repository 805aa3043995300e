package pipeline

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/optim"
	"weipipe/internal/trace"
)

// fullSpec sets every serialisable RunSpec field to a non-zero value.
func fullSpec() RunSpec {
	return RunSpec{
		Strategy: StrategyWZB2G,
		Model:    eqCfg(),
		Options: Options{Adam: optim.DefaultAdamW(0.02), Recompute: true, ClipNorm: 1.5,
			Guard: true, Integrity: true, GroupSize: 2},
		World: 4, Spares: 1,
		Iters: 9, MicroBatches: 12, MicroBatchSize: 3, BatchSeed: 2654435761 * 42,
		CheckpointEvery: 2, CheckpointPath: "/ckpt/run.wpck", CheckpointKeep: 3,
		Warmup:      4,
		MaxRestarts: 5,
		Elastic:     ElasticSpare,
		TCP:         true,
		Deadlines:   comm.Deadlines{Dial: time.Second, PeerDead: 2 * time.Second, Barrier: time.Minute},
		Chaos:       &comm.ChaosConfig{Seed: 7, Drop: 0.01, MaxDelay: time.Millisecond},
	}
}

// A RunSpec is the launch supervisor's assign payload: what a worker
// decodes must be the spec the supervisor encoded, field for field.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	s := fullSpec()
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("fullSpec leaves %s zero: the round trip would not cover it", v.Type().Field(i).Name)
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got RunSpec
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, s)
	}
	// The process-local options stay behind.
	s.Options.Trace, s.Options.BitFlip = trace.NewSet(1, 16), NewBitFlipInjector(nil)
	if raw2, _ := json.Marshal(s); string(raw2) != string(raw) {
		t.Fatal("Options.Trace or Options.BitFlip reached the wire")
	}
}

// RunSpec is data only: every field exported and made of serialisable
// kinds, so a callback cannot hide in it — RunHooks is where those live.
func TestRunSpecFieldsSerialisable(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer, reflect.Uintptr, reflect.Complex64, reflect.Complex128:
			t.Errorf("%s is a %s, which does not serialise", path, ty.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			check(path, ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				if f.Tag.Get("json") == "-" || (!f.IsExported() && path != "RunSpec") {
					continue // process-local, or internal to a nested type
				}
				if !f.IsExported() {
					t.Errorf("RunSpec.%s is unexported", f.Name)
				}
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	check("RunSpec", reflect.TypeOf(RunSpec{}))
	for i := range reflect.TypeOf(RunSpec{}).NumField() {
		if f := reflect.TypeOf(RunSpec{}).Field(i); f.Tag.Get("json") == "-" {
			t.Errorf("RunSpec.%s does not serialise", f.Name)
		}
	}
}

// Validate is the one place a run is rejected.
func TestRunSpecValidate(t *testing.T) {
	ok := eqSpec(StrategyWZB2, 2, 4, 4)
	for _, c := range []struct {
		name string
		edit func(*RunSpec)
		want string // "" = valid
	}{
		{"fixture", func(*RunSpec) {}, ""},
		{"spares under spare policy", func(s *RunSpec) { s.Spares, s.Elastic = 1, ElasticSpare }, ""},
		{"rotation with an interval", func(s *RunSpec) { s.CheckpointKeep, s.CheckpointEvery = 3, 2 }, ""},
		{"chaos over TCP", func(s *RunSpec) { s.Chaos, s.TCP = &comm.ChaosConfig{Drop: 0.5}, true }, ""},
		{"chaos in process", func(s *RunSpec) { s.Chaos = &comm.ChaosConfig{Drop: 0.5} }, "requires -tcp"},
		{"no ranks", func(s *RunSpec) { s.World = 0 }, "world size 0"},
		{"unknown strategy", func(s *RunSpec) { s.Strategy = "bogus" }, `unknown strategy "bogus"`},
		{"spares without the spare policy", func(s *RunSpec) { s.Spares, s.Elastic = 1, ElasticShrink }, "spares need the spare elastic policy"},
		{"spares without a policy", func(s *RunSpec) { s.Spares = 2 }, "spares need the spare elastic policy"},
		{"rotation without an interval", func(s *RunSpec) { s.CheckpointKeep = 2 }, "needs a checkpoint interval"},
		{"negative restarts", func(s *RunSpec) { s.MaxRestarts = -1 }, "negative"},
		{"chaos probability", func(s *RunSpec) { s.Chaos, s.TCP = &comm.ChaosConfig{Dup: 1.5}, true }, "outside [0, 1]"},
	} {
		s := ok
		c.edit(&s)
		err := s.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// ValidWorld is the one world rule: PlanRepair's admissions and the launch
// supervisor's checkpoint-restart search both ask it.
func TestValidWorld(t *testing.T) {
	for _, c := range []struct {
		world, modules, mb int
		ok                 bool
	}{
		{2, 6, 12, true}, {3, 6, 12, true}, {6, 6, 12, true},
		{1, 6, 12, false}, // a ring needs two
		{7, 6, 14, false}, // more ranks than modules
		{5, 6, 12, false}, // 5 does not divide 12
		{4, 10, 6, false}, // PlanRepair: 4 does not divide 6
		{3, 10, 6, true},  // … so it shrinks to 3
		{4, 3, 8, false},  // supervisor: 4 > 3 modules …
		{2, 3, 8, true},   // … so the restart takes 2
	} {
		if got := ValidWorld(c.world, c.modules, c.mb); got != c.ok {
			t.Errorf("ValidWorld(%d, %d, %d) = %v, want %v", c.world, c.modules, c.mb, got, c.ok)
		}
	}
}

// The learning rate is Adam's, held constant without a warm-up and run
// through the warm-up and cosine decay to a tenth of it over the run's
// iterations with one.
func TestRunSpecLR(t *testing.T) {
	s := eqSpec(StrategyWZB2, 2, 20, 4)
	for _, it := range []int{0, 7, 19, 40} {
		if got := s.LR(it); got != s.Options.Adam.LR {
			t.Fatalf("no warm-up: LR(%d) = %v, want %v", it, got, s.Options.Adam.LR)
		}
	}
	s.Warmup = 5
	want := optim.WarmupCosine{Base: s.Options.Adam.LR, Floor: s.Options.Adam.LR / 10, Warmup: 5, Total: 20}
	for _, it := range []int{0, 4, 5, 12, 19, 20} {
		if got := s.LR(it); got != want.LR(it) {
			t.Fatalf("warm-up: LR(%d) = %v, want %v", it, got, want.LR(it))
		}
	}
}

// Bind declares every run flag once, defaulting to the receiver's values,
// and parses into the spec.
func TestRunSpecBind(t *testing.T) {
	s := eqSpec(StrategyWZB2, 4, 10, 12)
	s.Elastic = ElasticSpare
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Bind(fs)
	if f := fs.Lookup("n"); f == nil || f.DefValue != "12" {
		t.Fatalf("-n default %v, want the receiver's 12", f)
	}
	if f := fs.Lookup("elastic"); f == nil || f.DefValue != "spare" {
		t.Fatalf("-elastic default %v, want the receiver's spare", f)
	}
	err := fs.Parse([]string{"-strategy", "fsdp", "-p", "3", "-lr", "0.5", "-elastic", "shrink",
		"-chaos", "0.1", "-warmup", "2", "-checkpoint", "x.wpck"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy != StrategyFSDP || s.World != 3 || s.Options.Adam.LR != 0.5 || s.Elastic != ElasticShrink ||
		s.Chaos == nil || s.Chaos.Drop != 0.1 || s.Warmup != 2 || s.CheckpointPath != "x.wpck" {
		t.Fatalf("parsed into %+v", s)
	}
	if err := fs.Parse([]string{"-elastic", "sometimes"}); err == nil {
		t.Fatal("an unknown -elastic policy parsed")
	}
}
