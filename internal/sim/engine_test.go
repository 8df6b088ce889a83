package sim_test

import (
	"testing"

	"mips/internal/sim"
)

// TestParseEngine pins every engine name ParseEngine accepts, the
// round trip through String, and the error for an unknown name.
func TestParseEngine(t *testing.T) {
	for _, c := range []struct {
		name string
		want sim.Engine
	}{
		{"reference", sim.Reference}, {"interp", sim.Reference}, {"ref", sim.Reference},
		{"fast", sim.FastPath}, {"fastpath", sim.FastPath},
		{"blocks", sim.Blocks}, {"block", sim.Blocks},
		{"traces", sim.Traces}, {"trace", sim.Traces},
		{"default", sim.Default}, {"", sim.Default},
	} {
		got, err := sim.ParseEngine(c.name)
		if err != nil || got != c.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, e := range []sim.Engine{sim.Default, sim.Reference, sim.FastPath, sim.Blocks, sim.Traces} {
		if got, err := sim.ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
	if _, err := sim.ParseEngine("jit"); err == nil {
		t.Error(`ParseEngine("jit") accepted an unknown engine name`)
	}
}
