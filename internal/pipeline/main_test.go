package pipeline

import (
	"os"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/tensor"
)

// TestMain runs the whole package under the buffer and arena poison hooks:
// every pool buffer is NaN-filled at its last release (and panics if
// released again), and every arena tensor is NaN when handed out and again
// when freed or reset (and a Free of one that is not live panics). Every
// equivalence suite in the package — per backend, chaos, grouped, integrity,
// elastic, recompute — therefore also proves that no stage reads a chunk it
// already gave back, and that no module reads a scratch tensor before
// writing it or after freeing it: each would put NaN into losses that are
// compared bit for bit. A module a stage did not bind is a shell with no
// storage at all, so reading one panics.
func TestMain(m *testing.M) {
	comm.SetBufPoison(true)
	tensor.SetArenaPoison(true)
	os.Exit(m.Run())
}
