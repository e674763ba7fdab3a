package reqlang

import (
	"reflect"
	"slices"
	"testing"
)

func TestFreeAndMentionedVars(t *testing.T) {
	src := "" +
		"minmem = 5\n" +
		"host_cpu_bogomips > 3000 * true\n" +
		"host_memory_free > minmem\n" +
		"score = host_cpu_bogomips * host_cpu_free\n" +
		"score\n"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Mentioned: every variable read and every assignment target, free
	// or not — everything the evaluator may look up or bind, so an env
	// restricted to this set is semantics-identical to a full env.
	// Constants (true) and user parameters are not variables.
	wantMentioned := []string{"host_cpu_bogomips", "host_cpu_free", "host_memory_free", "minmem", "score"}
	if got := p.MentionedVars(); !reflect.DeepEqual(got, wantMentioned) {
		t.Errorf("MentionedVars = %v, want %v", got, wantMentioned)
	}
}

func TestAssignedServerVarStaysMentioned(t *testing.T) {
	// Assigning to a server-side parameter is an eval-time error; the
	// name must still be in the mentioned set so the restricted env
	// carries the binding that triggers that exact error.
	p, err := Parse("host_cpu_free = 1\nhost_cpu_free > 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(p.MentionedVars(), "host_cpu_free") {
		t.Error("assigned server parameter missing from mentioned set")
	}
}
