package snapshot

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ntos/fsys"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

func buildFS(t testing.TB) *fsys.FS {
	t.Helper()
	fs := fsys.New(volume.FlavorNTFS, 1<<30)
	fs.MkdirAll(`\winnt\profiles\alice\Temporary Internet Files`, 10)
	fs.MkdirAll(`\docs`, 10)
	fs.CreateFile(`\docs\a.txt`, 100, types.AttrNormal, 20)
	fs.CreateFile(`\docs\b.doc`, 2000, types.AttrNormal, 30)
	fs.CreateFile(`\winnt\profiles\alice\Temporary Internet Files\x.gif`, 500, types.AttrNormal, 40)
	return fs
}

func TestTakeCountsAndBytes(t *testing.T) {
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	if snap.Machine != "m1" || snap.TakenAt != 100 {
		t.Errorf("header: %+v", snap)
	}
	files := snap.Files()
	if len(files) != 3 {
		t.Fatalf("files = %d", len(files))
	}
	if got := snap.TotalBytes(); got != 2600 {
		t.Errorf("TotalBytes = %d", got)
	}
	dirs := snap.Dirs()
	// root, winnt, profiles, alice, TIF, docs.
	if len(dirs) != 6 {
		t.Errorf("dirs = %d", len(dirs))
	}
}

func TestDirectoryFanOutRecorded(t *testing.T) {
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	for _, e := range snap.Entries() {
		if e.Path == `\docs` {
			if e.Rec.NumFiles != 2 || e.Rec.NumSubdirs != 0 {
				t.Errorf("docs fan-out: %+v", e.Rec)
			}
			return
		}
	}
	t.Fatal("\\docs not found in snapshot")
}

func TestTreeRecoverable(t *testing.T) {
	// §3.1: "in such a way that the original tree can be recovered".
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	paths := map[string]bool{}
	for _, e := range snap.Entries() {
		paths[e.Path] = true
	}
	for _, want := range []string{
		`\`, `\docs`, `\docs\a.txt`, `\docs\b.doc`,
		`\winnt\profiles\alice\Temporary Internet Files\x.gif`,
	} {
		if !paths[want] {
			t.Errorf("path %q not recoverable from walk records", want)
		}
	}
}

func TestShortNamesKeepExtension(t *testing.T) {
	fs := fsys.New(volume.FlavorNTFS, 1<<30)
	long := strings.Repeat("verylongname", 6) + ".html"
	fs.CreateFile(`\`+long, 10, types.AttrNormal, 0)
	snap := Take("m", `C:`, fs, 0)
	for _, f := range snap.Files() {
		if len(f.Name) > 40 {
			t.Errorf("name not shortened: %q (%d chars)", f.Name, len(f.Name))
		}
		if f.Ext() != "html" {
			t.Errorf("extension lost in shortening: %q", f.Name)
		}
	}
}

func TestCompareDiff(t *testing.T) {
	fs := buildFS(t)
	old := Take("m1", `C:`, fs, 100)

	// Mutate: add one file, change one, remove one.
	fs.CreateFile(`\docs\new.txt`, 50, types.AttrNormal, 200)
	n, _ := fs.Lookup(`\docs\a.txt`)
	fs.SetSize(n, 150, 210)
	b, _ := fs.Lookup(`\docs\b.doc`)
	fs.Remove(b)

	cur := Take("m1", `C:`, fs, 300)
	d := Compare(old, cur)
	if len(d.Added) != 1 || d.Added[0].Path != `\docs\new.txt` {
		t.Errorf("Added = %+v", d.Added)
	}
	if len(d.Changed) != 1 || d.Changed[0].Path != `\docs\a.txt` {
		t.Errorf("Changed = %+v", d.Changed)
	}
	if len(d.Removed) != 1 || d.Removed[0].Path != `\docs\b.doc` {
		t.Errorf("Removed = %+v", d.Removed)
	}
}

func TestFractionUnder(t *testing.T) {
	fs := buildFS(t)
	old := Take("m1", `C:`, fs, 100)
	// Two changes under the profile, one outside.
	fs.CreateFile(`\winnt\profiles\alice\Temporary Internet Files\y.gif`, 10, types.AttrNormal, 200)
	fs.CreateFile(`\winnt\profiles\alice\z.dat`, 10, types.AttrNormal, 200)
	fs.CreateFile(`\docs\out.txt`, 10, types.AttrNormal, 200)
	cur := Take("m1", `C:`, fs, 300)
	d := Compare(old, cur)
	if got := d.FractionUnder(`\winnt\profiles`); got < 0.66 || got > 0.67 {
		t.Errorf("FractionUnder(profiles) = %v, want 2/3", got)
	}
	if got := d.FractionUnder(`\winnt\profiles\alice\Temporary Internet Files`); got < 0.33 || got > 0.34 {
		t.Errorf("FractionUnder(WWW cache) = %v, want 1/3", got)
	}
}

func TestFATTimesZeroInSnapshot(t *testing.T) {
	fs := fsys.New(volume.FlavorFAT, 1<<30)
	fs.CreateFile(`\f.dat`, 10, types.AttrNormal, sim.Time(5*sim.Second))
	snap := Take("m", `C:`, fs, sim.Time(10*sim.Second))
	for _, f := range snap.Files() {
		if f.Created != 0 || f.LastAccessed != 0 {
			t.Errorf("FAT snapshot carries created/accessed times: %+v", f)
		}
		if f.LastModified == 0 {
			t.Error("FAT snapshot lost modified time")
		}
	}
}

// TestTakeSizesRecordsExactly: after creates, renames and removes (of
// files and of empty directories), Take allocates exactly one record per
// live node and still emits the pre-order, ChildNames-ordered walk with
// each directory's fan-out.
func TestTakeSizesRecordsExactly(t *testing.T) {
	fs := buildFS(t)
	fs.MkdirAll(`\tmp\a\b`, 50)
	fs.MkdirAll(`\tmp\c`, 50)
	fs.CreateFile(`\tmp\c\f.txt`, 7, types.AttrNormal, 60)
	fs.CreateFile(`\tmp\g.log`, 9, types.AttrNormal, 60)
	b, _ := fs.Lookup(`\tmp\a\b`)
	if st := fs.Remove(b); st.IsError() {
		t.Fatalf("remove empty dir: %v", st)
	}
	c, _ := fs.Lookup(`\tmp\c`)
	if st := fs.Remove(c); !st.IsError() {
		t.Fatal("removed a non-empty directory")
	}
	a, _ := fs.Lookup(`\docs\a.txt`)
	fs.Remove(a)
	if st := fs.Rename(c, `\docs\C2`); st.IsError() {
		t.Fatalf("rename dir: %v", st)
	}
	g, _ := fs.Lookup(`\tmp\g.log`)
	if st := fs.Rename(g, `\winnt\G.log`); st.IsError() {
		t.Fatalf("rename file: %v", st)
	}

	snap := Take("m1", `C:`, fs, 100)
	if n := fs.FileCount + fs.DirCount; len(snap.Records) != n || cap(snap.Records) != n {
		t.Errorf("records len %d cap %d, want both %d", len(snap.Records), cap(snap.Records), n)
	}

	var want []WalkRecord
	var walk func(n *fsys.Node, depth int)
	walk = func(n *fsys.Node, depth int) {
		w := WalkRecord{Name: shortName(n.Name), Depth: depth, IsDir: n.IsDir(), Size: n.Size,
			Created: n.Created, LastModified: n.LastModified, LastAccessed: n.LastAccessed}
		if n.IsDir() {
			for _, name := range n.ChildNames() {
				if n.Child(name).IsDir() {
					w.NumSubdirs++
				} else {
					w.NumFiles++
				}
			}
		}
		want = append(want, w)
		if n.IsDir() {
			for _, name := range n.ChildNames() {
				walk(n.Child(name), depth+1)
			}
		}
	}
	walk(fs.Root, 0)
	if len(want) != len(snap.Records) {
		t.Fatalf("walk has %d records, snapshot %d", len(want), len(snap.Records))
	}
	for i := range want {
		if snap.Records[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, snap.Records[i], want[i])
		}
	}
}

// compareReference is the direct form of Compare: a map of old records
// by lower-cased path, a set of new paths, and a second pass over the
// old entries for removals.
func compareReference(oldSnap, newSnap *Snapshot) Diff {
	oldBy := map[string]WalkRecord{}
	for _, e := range oldSnap.Entries() {
		oldBy[strings.ToLower(e.Path)] = e.Rec
	}
	var d Diff
	seen := map[string]bool{}
	for _, e := range newSnap.Entries() {
		key := strings.ToLower(e.Path)
		seen[key] = true
		oldRec, ok := oldBy[key]
		switch {
		case !ok:
			d.Added = append(d.Added, e)
		case !e.Rec.IsDir && (oldRec.Size != e.Rec.Size || oldRec.LastModified != e.Rec.LastModified):
			d.Changed = append(d.Changed, e)
		}
	}
	for _, e := range oldSnap.Entries() {
		if !seen[strings.ToLower(e.Path)] {
			d.Removed = append(d.Removed, e)
		}
	}
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].Path < d.Added[j].Path })
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i].Path < d.Removed[j].Path })
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Path < d.Changed[j].Path })
	return d
}

// TestCompareMatchesReference diffs generated volumes against each other
// and a tree whose long names shorten to the same path (so several
// entries share one), and requires Compare to equal the reference.
func TestCompareMatchesReference(t *testing.T) {
	dup := func(size int64) *Snapshot {
		fs := buildFS(t)
		long := strings.Repeat("x", 40)
		fs.CreateFile(`\docs\`+long+"1.txt", size, types.AttrNormal, 50)
		fs.CreateFile(`\docs\`+long+"2.TXT", 2*size, types.AttrNormal, 60)
		fs.MkdirAll(`\docs\`+long+"a", 70)
		fs.MkdirAll(`\docs\`+long+"b", 70)
		return Take("m1", `C:`, fs, 100)
	}
	a, b := genSnapshot(t, 5, volume.FlavorNTFS), genSnapshot(t, 6, volume.FlavorNTFS)
	for _, pair := range [][2]*Snapshot{{a, b}, {b, a}, {a, a}, {dup(10), dup(20)}, {dup(10), Take("m1", `C:`, buildFS(t), 100)}} {
		if got, want := Compare(pair[0], pair[1]), compareReference(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("Compare differs from reference: %d/%d/%d added/changed/removed, want %d/%d/%d",
				len(got.Added), len(got.Changed), len(got.Removed), len(want.Added), len(want.Changed), len(want.Removed))
		}
	}
}
