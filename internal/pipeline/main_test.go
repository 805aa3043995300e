package pipeline

import (
	"os"
	"testing"
)

// TestMain runs the whole package under the belt poison hook: the model's
// own storage is NaN once a WeiPipe trainer is built, and every pool buffer
// is NaN-filled at its last release (and panics if released again). Every
// equivalence suite in the package — per backend, chaos, grouped,
// integrity, elastic — therefore also proves that no stage reads a module it
// did not bind or a chunk it already gave back: either would put NaN into
// losses that are compared bit for bit.
func TestMain(m *testing.M) {
	SetBeltPoison(true)
	os.Exit(m.Run())
}
