package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encodeString encodes t, failing the test on error.
func encodeString(t *testing.T, tr *Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.String()
}

func TestRoundTripAllClasses(t *testing.T) {
	for _, class := range Classes() {
		t.Run(class, func(t *testing.T) {
			p := DefaultParams(42)
			p.Streams, p.Records = 3, 32
			tr, err := Generate(class, p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			enc := encodeString(t, tr)
			dec, err := Decode(strings.NewReader(enc))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(dec, tr) {
				t.Fatal("decoded trace differs from the encoded one")
			}
			if re := encodeString(t, dec); re != enc {
				t.Fatal("re-encoding the decoded trace is not byte-identical")
			}
		})
	}
}

func TestRoundTripEmptyTrace(t *testing.T) {
	for _, tr := range []*Trace{{}, {Files: []FileSpec{{Size: 4096}}}} {
		enc := encodeString(t, tr)
		dec, err := Decode(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("decode empty: %v", err)
		}
		if len(dec.Records) != 0 || len(dec.Files) != len(tr.Files) {
			t.Fatalf("empty round-trip produced %d files, %d records", len(dec.Files), len(dec.Records))
		}
	}
}

func TestEncodeRefusesInvalidTrace(t *testing.T) {
	tr := tinyTrace()
	tr.Records[0].Len = 0
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err == nil {
		t.Fatal("encode of a zero-length record succeeded")
	}
}

func TestDecodeRejections(t *testing.T) {
	valid := encodeString(t, tinyTrace())
	cases := []struct {
		name string
		mut  func(string) string
		want string
	}{
		{"bad header", func(s string) string {
			return strings.Replace(s, "sledtrace/1", "sledtrace/2", 1)
		}, "header"},
		{"out-of-order vtimes", func(s string) string {
			// Swap the first and last r lines: arrival times go backwards.
			lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
			var rs []int
			for i, l := range lines {
				if strings.HasPrefix(l, "r ") {
					rs = append(rs, i)
				}
			}
			lines[rs[0]], lines[rs[len(rs)-1]] = lines[rs[len(rs)-1]], lines[rs[0]]
			return strings.Join(lines, "\n") + "\n"
		}, "canonical order"},
		{"zero-length op", func(s string) string {
			return strings.Replace(s, "r 0 0 0 0 4096 r", "r 0 0 0 0 0 r", 1)
		}, "non-positive length"},
		{"unknown op letter", func(s string) string {
			return strings.Replace(s, "r 0 0 0 0 4096 r", "r 0 0 0 0 4096 x", 1)
		}, "unknown op"},
		{"file index out of order", func(s string) string {
			return strings.Replace(s, "f 1 ", "f 3 ", 1)
		}, "out of order"},
		{"wrong field count", func(s string) string {
			return strings.Replace(s, "r 0 0 0 0 4096 r", "r 0 0 0 0 4096", 1)
		}, "want"},
		{"malformed integer", func(s string) string {
			return strings.Replace(s, "r 0 0 0 0 4096 r", "r zero 0 0 0 4096 r", 1)
		}, "bad vtime"},
		{"missing end", func(s string) string {
			return strings.TrimSuffix(s, "end\n")
		}, "unexpected end of input"},
		{"trailing data", func(s string) string {
			return s + "extra\n"
		}, "trailing data"},
		{"record count mismatch", func(s string) string {
			return strings.Replace(s, "records 4", "records 5", 1)
		}, ""},
		{"double space", func(s string) string {
			return strings.Replace(s, "r 0 0 0 0 4096 r", "r 0  0 0 0 4096 r", 1)
		}, "want"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.mut(valid)))
			if err == nil {
				t.Fatal("mutated input decoded without error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGoldenRoundTrip pins the wire format: the committed golden file must
// decode to exactly the trace the generator produces today, and re-encode
// to the committed bytes. A diff here means the format or a generator
// changed — bump Version or fix the regression.
func TestGoldenRoundTrip(t *testing.T) {
	p := DefaultParams(7)
	p.Streams, p.Records = 2, 12
	tr, err := Generate("mixed", p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	want := encodeString(t, tr)

	path := filepath.Join("testdata", "golden_v1.sledtrace")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: go run ./cmd/sledstrace gen -class mixed -seed 7 -streams 2 -records 12 -o %s)", err, path)
	}
	if string(got) != want {
		t.Fatalf("golden file drifted from the generator output:\n--- got (file)\n%s--- want (generated)\n%s", got, want)
	}
	dec, err := Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(dec, tr) {
		t.Fatal("golden file decodes to a different trace than the generator produces")
	}
}

// TestDecodeRejectsHugeCounts: a header may declare any count, and Decode
// must not size anything from it before the lines arrive. A 40-byte file
// declaring 2^63-1 files once panicked in makeslice, and one declaring two
// billion records asked for about 96 GB.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	for _, in := range []string{
		"sledtrace/1\nfiles 9223372036854775807\n",
		"sledtrace/1\nfiles 0\nrecords 9223372036854775807\n",
		"sledtrace/1\nfiles 0\nrecords 2000000000\n",
		"sledtrace/1\nfiles 1\nf 0 4096\nrecords 2000000000\nr 0 0 0 0 4096 r\nend\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Decode(%q) accepted a count its input does not hold", in)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("Decode(%q) allocated %d bytes for a %d-byte input", in, grew, len(in))
		}
	}
}

// FuzzDecode holds the codec to its contract on any input: Decode either
// rejects it or returns a trace that validates and survives Encode then
// Decode unchanged. The seeds are the committed golden file, a valid
// trace with each rejection case applied, and the huge-count headers.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v1.sledtrace"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var valid bytes.Buffer
	if err := Encode(&valid, tinyTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, in := range []string{
		"",
		"sledtrace/1\nfiles 0\nrecords 0\nend\n",
		"sledtrace/1\nfiles 9223372036854775807\n",
		"sledtrace/1\nfiles 0\nrecords 2000000000\n",
		strings.Replace(valid.String(), "records 4", "records 5", 1),
		strings.Replace(valid.String(), "r 0 0 0 0 4096 r", "r 0 0 0 0 0 r", 1),
		strings.Replace(valid.String(), "r 0 0 0 0 4096 r", "r 0  0 0 0 4096 r", 1),
		strings.Replace(valid.String(), "f 1 ", "f 3 ", 1),
		strings.TrimSuffix(valid.String(), "end\n"),
		valid.String() + "extra\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode returned a trace that does not validate: %v", err)
		}
		var enc bytes.Buffer
		if err := Encode(&enc, tr); err != nil {
			t.Fatalf("Encode refused a decoded trace: %v", err)
		}
		again, err := Decode(&enc)
		if err != nil {
			t.Fatalf("Decode rejected its own re-encoding: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("Encode then Decode changed the trace:\n got %+v\nwant %+v", again, tr)
		}
	})
}
