package coherence

import "testing"

// TestSchemeTable checks the scheme table that the engine, the facade and
// the result keys all resolve schemes through: every id 0..n-1 is present
// at its own index, and every row is complete and uniquely named.
func TestSchemeTable(t *testing.T) {
	names := make(map[string]bool, len(descriptors))
	for i, d := range descriptors {
		if int(d.Scheme) != i {
			t.Errorf("descriptors[%d] has Scheme %d", i, d.Scheme)
		}
		if d.Name == "" || d.Description == "" || d.New == nil {
			t.Errorf("descriptors[%d] (%q) is incomplete: Name, Description and New must be set", i, d.Name)
		}
		if names[d.Name] {
			t.Errorf("scheme name %q appears twice", d.Name)
		}
		names[d.Name] = true
	}
	if _, ok := Describe(Scheme(len(descriptors))); ok {
		t.Errorf("Describe accepts the out-of-range id %d", len(descriptors))
	}
	reg := Registered()
	if len(reg) != len(descriptors) {
		t.Fatalf("Registered() has %d schemes, want %d", len(reg), len(descriptors))
	}
	for i, d := range reg {
		if d.Scheme != Scheme(i) {
			t.Errorf("Registered()[%d] is scheme %d", i, d.Scheme)
		}
	}
}
