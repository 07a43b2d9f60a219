package lcm_test

import (
	"testing"

	"teapot/internal/core"
	"teapot/internal/protocols"
	"teapot/internal/protocols/lcm"
)

// TestVariantsCompile: each variant is in the protocols table under its own
// name and compiles as the table configures it.
func TestVariantsCompile(t *testing.T) {
	for _, v := range []lcm.Variant{lcm.Base, lcm.Update, lcm.MCC, lcm.Both} {
		e, ok := protocols.Lookup(v.String())
		if !ok {
			t.Errorf("%s: not a bundled protocol", v)
			continue
		}
		if _, err := core.Compile(e.Config); err != nil {
			t.Errorf("%s: %v", v, err)
		}
	}
}
