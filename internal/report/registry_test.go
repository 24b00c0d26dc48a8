package report

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fsgen"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// publicationOrder is the section order fsreport printed before the
// registry existed; the names are the /v1/report artifact names that
// the query load generators and the benchmark request.
var publicationOrder = []string{
	"table1", "table2", "table3",
	"figure1", "figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
	"figure8", "figure9", "figure10", "figure11", "figure12", "figure13", "figure14",
	"section5", "section6", "section8", "section9", "section10",
	"section7", "process", "type", "followups", "cachesweep",
}

func TestSectionNames(t *testing.T) {
	names := SectionNames()
	if !slices.Equal(names, publicationOrder) {
		t.Fatalf("section names\n got %q\nwant %q", names, publicationOrder)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("section %q listed twice", n)
		}
		seen[n] = true
	}
	// The artifacts query.RunLoad and the query benchmark request.
	for _, n := range []string{"table1", "table2", "table3", "figure2", "figure5",
		"section5", "section8", "process"} {
		if !seen[n] {
			t.Errorf("requested artifact %q has no section", n)
		}
	}
}

// TestSectionsRenderFullReport pins each name to its renderer: the
// sections rendered in order and printed one per line, as fsreport
// prints them, are the full report written out call by call.
func TestSectionsRenderFullReport(t *testing.T) {
	fs := fsys.New(volume.FlavorNTFS, 8<<30)
	fsgen.PopulateLocal(fs, sim.NewRNG(41), fsgen.Config{User: "usera", Category: machine.Personal, Now: 0})
	snaps := []*snapshot.Snapshot{snapshot.Take("a", `C:`, fs, 0)}
	r := synth(t)

	var want strings.Builder
	for _, text := range []string{
		r.Table1(), r.Table2(), r.Table3(),
		r.Figure1(), r.Figure2(), r.Figure3(), r.Figure4(), r.Figure5(),
		r.Figure6(), r.Figure7(), r.Figure8(), r.Figure9(), r.Figure10(),
		r.Figure11(), r.Figure12(), r.Figure13(), r.Figure14(),
		r.Section5(snaps),
		r.Section6Lifetimes(), r.Section8(), r.Section9(), r.Section10(),
		r.Section7SelfSim(), r.ProcessView(), r.TypeView(), r.FollowUps(),
		r.CacheSweep([]float64{1, 4, 16}),
	} {
		want.WriteString(text + "\n")
	}
	var got strings.Builder
	for _, sec := range r.Sections(snaps) {
		got.WriteString(sec.Render() + "\n")
	}
	if got.String() != want.String() {
		t.Fatal("sections rendered in order differ from the full report")
	}
}
