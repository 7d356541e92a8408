package trace

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"sleds/internal/simclock"
)

// tinyTrace returns a small hand-built valid trace used across the tests.
func tinyTrace() *Trace {
	return &Trace{
		Files: []FileSpec{{Size: 1 << 20}, {Size: 1 << 16}},
		Records: []Record{
			{VTime: 0, Stream: 0, File: 0, Off: 0, Len: 4096, Op: OpRead},
			{VTime: 0, Stream: 1, File: 1, Off: 8192, Len: 4096, Op: OpWrite},
			{VTime: simclock.Millisecond, Stream: 0, File: 0, Off: 4096, Len: 4096, Op: OpRead},
			{VTime: 2 * simclock.Millisecond, Stream: 2, File: 0, Off: 0, Len: 512, Op: OpRead},
		},
	}
}

func TestValidateAcceptsCanonicalTrace(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := (&Trace{}).Validate(); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"negative file size", func(tr *Trace) { tr.Files[0].Size = -1 }, "negative size"},
		{"negative vtime", func(tr *Trace) { tr.Records[0].VTime = -simclock.Nanosecond }, "negative vtime"},
		{"negative stream", func(tr *Trace) { tr.Records[0].Stream = -1 }, "negative stream"},
		{"file out of table", func(tr *Trace) { tr.Records[0].File = 2 }, "outside the 2-entry file table"},
		{"negative file index", func(tr *Trace) { tr.Records[0].File = -1 }, "outside the 2-entry file table"},
		{"zero length", func(tr *Trace) { tr.Records[0].Len = 0 }, "non-positive length"},
		{"negative offset", func(tr *Trace) { tr.Records[0].Off = -4096 }, "negative offset"},
		{"past file end", func(tr *Trace) { tr.Records[0].Off = 1<<20 - 1 }, "runs outside file"},
		{"offset overflow", func(tr *Trace) { tr.Records[0].Off = 1<<63 - 1 }, "runs outside file"},
		{"unknown op", func(tr *Trace) { tr.Records[0].Op = 7 }, "unknown op"},
		{"out of order", func(tr *Trace) { tr.Records[0], tr.Records[2] = tr.Records[2], tr.Records[0] }, "out of canonical order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tinyTrace()
			tc.mut(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatalf("mutated trace passed Validate")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSortIsCanonicalAndStable(t *testing.T) {
	tr := tinyTrace()
	// Reverse, sort, and expect Validate to accept the order again.
	for i, j := 0, len(tr.Records)-1; i < j; i, j = i+1, j-1 {
		tr.Records[i], tr.Records[j] = tr.Records[j], tr.Records[i]
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		t.Fatalf("sorted trace invalid: %v", err)
	}
	if !reflect.DeepEqual(tr.Records, tinyTrace().Records) {
		t.Fatalf("sort did not restore canonical order:\n%v", tr.Records)
	}
}

func TestStreamsAndIndex(t *testing.T) {
	tr := tinyTrace()
	if got, want := tr.Streams(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Streams() = %v, want %v", got, want)
	}
	idx := tr.Index()
	if got, want := idx.Streams(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Index().Streams() = %v, want %v", got, want)
	}
	wantRecs := [][]int{{0, 2}, {1}, {3}}
	for i := range idx.Streams() {
		if got := idx.Records(i); !reflect.DeepEqual(got, wantRecs[i]) {
			t.Fatalf("stream %d records = %v, want %v", i, got, wantRecs[i])
		}
	}
}

func TestSpan(t *testing.T) {
	tr := tinyTrace()
	first, last := tr.Span()
	if first != 0 || last != 2*simclock.Millisecond {
		t.Fatalf("Span() = (%v, %v), want (0, 2ms)", first, last)
	}
	if f, l := (&Trace{}).Span(); f != 0 || l != 0 {
		t.Fatalf("empty Span() = (%v, %v), want zeros", f, l)
	}
}

func TestClassesSortedAndDocumented(t *testing.T) {
	cs := Classes()
	if !sort.StringsAreSorted(cs) {
		t.Fatalf("Classes() not sorted: %v", cs)
	}
	for _, c := range cs {
		if ClassDoc(c) == "" {
			t.Fatalf("class %q has no doc line", c)
		}
	}
	if ClassDoc("no-such-class") != "" {
		t.Fatal("ClassDoc of an unknown class is non-empty")
	}
}
