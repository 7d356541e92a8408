// Command sledstrace generates, inspects, and validates I/O trace files
// in the sledtrace/1 text format (internal/trace).
//
// Usage:
//
//	sledstrace gen -class olap -seed 7 -o scan.sledtrace   # generate
//	sledstrace inspect scan.sledtrace                      # summarize
//	sledstrace validate scan.sledtrace                     # check, exit 1 on bad
//
// gen writes to stdout when -o is omitted; inspect and validate read
// stdin when the path is "-" or omitted. Generation is a pure function of
// the flags: the same invocation produces byte-identical output anywhere.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sleds/cmd/internal/demo"
	"sleds/internal/simclock"
	"sleds/internal/trace"
)

const usage = `usage: sledstrace <command> [flags] [file]

commands:
  gen       generate a trace (writes to -o or stdout)
  inspect   print a summary of a trace file ("-" or no file = stdin)
  validate  check a trace file; exit 0 if valid, 1 if not
  classes   list the workload classes, one per line, with descriptions

run "sledstrace <command> -h" for the command's flags
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "gen":
		return gen(args[1:], stdout, stderr)
	case "inspect":
		return inspect(args[1:], stdout, stderr)
	case "validate":
		return validate(args[1:], stdout, stderr)
	case "classes":
		for _, c := range trace.Classes() {
			fmt.Fprintf(stdout, "%-8s %s\n", c, trace.ClassDoc(c))
		}
		return 0
	case "-h", "--help", "help":
		fmt.Fprint(stderr, usage)
		return 0
	}
	fmt.Fprintf(stderr, "sledstrace: unknown command %q\n%s", args[0], usage)
	return 2
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flags returns a subcommand's flag set, reporting to stderr.
func flags(cmd string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sledstrace "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func gen(args []string, stdout, stderr io.Writer) int {
	fs := flags("gen", stderr)
	class := fs.String("class", "oltp", "workload class (see: sledstrace classes)")
	seed := fs.Uint64("seed", 1, "generator seed")
	streams := fs.Int("streams", 0, "concurrent streams (0 = class default)")
	records := fs.Int("records", 0, "records per stream (0 = class default)")
	fileSize := fs.Int64("file-size", 0, "bytes per file (0 = default)")
	recLen := fs.Int64("rec-len", 0, "bytes per op (0 = default)")
	pageSize := fs.Int64("page-size", 0, "offset alignment (0 = default)")
	interarrival := fs.Duration("interarrival", 0, "mean interarrival within a stream (0 = default)")
	writeFrac := fs.Float64("write-frac", -1, "write fraction for class mixed (-1 = default)")
	out := fs.String("o", "", "output file (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	if fs.NArg() != 0 {
		return demo.Fail(fs, 2, fmt.Errorf("gen takes no positional arguments, got %q", fs.Args()))
	}

	p := trace.DefaultParams(*seed)
	if *streams > 0 {
		p.Streams = *streams
	}
	if *records > 0 {
		p.Records = *records
	}
	if *fileSize > 0 {
		p.FileSize = *fileSize
	}
	if *recLen > 0 {
		p.RecLen = *recLen
	}
	if *pageSize > 0 {
		p.PageSize = *pageSize
	}
	if *interarrival > 0 {
		p.Interarrival = simclock.Duration(*interarrival)
	}
	if *writeFrac >= 0 {
		p.WriteFrac = *writeFrac
	}
	tr, err := trace.Generate(*class, p)
	if err != nil {
		// Unknown classes are a usage error (exit 2, like an unknown -exp
		// id in sledsbench); anything else is a generation failure.
		code := 1
		if trace.ClassDoc(*class) == "" {
			code = 2
		}
		return demo.Fail(fs, code, err)
	}
	if *out == "" {
		err = trace.Encode(stdout, tr)
	} else {
		err = encodeFile(*out, tr)
	}
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	return 0
}

// encodeFile writes tr to the named file. A write that fails only when
// the file is closed is still a failure.
func encodeFile(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.Encode(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// decode reads the trace inspect and validate work on: the named file, or
// stdin for "-" or no argument. On failure it also returns the exit code.
func decode(fs *flag.FlagSet) (*trace.Trace, int, error) {
	r := io.Reader(os.Stdin)
	switch {
	case fs.NArg() > 1:
		return nil, 2, fmt.Errorf("want one trace file, got %q", fs.Args())
	case fs.NArg() == 1 && fs.Arg(0) != "-":
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return nil, 1, err
		}
		defer f.Close()
		r = f
	}
	tr, err := trace.Decode(r)
	if err != nil {
		return nil, 1, fmt.Errorf("invalid: %w", err)
	}
	return tr, 0, nil
}

func inspect(args []string, stdout, stderr io.Writer) int {
	fs := flags("inspect", stderr)
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	tr, code, err := decode(fs)
	if err != nil {
		return demo.Fail(fs, code, err)
	}
	fmt.Fprintf(stdout, "format: sledtrace/%d\n", trace.Version)
	fmt.Fprintf(stdout, "files: %d\n", len(tr.Files))
	var total int64
	for i, f := range tr.Files {
		fmt.Fprintf(stdout, "  f%d: %d bytes\n", i, f.Size)
		total += f.Size
	}
	fmt.Fprintf(stdout, "total file bytes: %d\n", total)
	fmt.Fprintf(stdout, "records: %d\n", len(tr.Records))
	var reads, writes int
	var bytes int64
	for _, rec := range tr.Records {
		if rec.Op == trace.OpWrite {
			writes++
		} else {
			reads++
		}
		bytes += rec.Len
	}
	fmt.Fprintf(stdout, "  reads: %d, writes: %d, op bytes: %d\n", reads, writes, bytes)
	first, last := tr.Span()
	fmt.Fprintf(stdout, "span: %v .. %v\n", time.Duration(first), time.Duration(last))
	idx := tr.Index()
	fmt.Fprintf(stdout, "streams: %d\n", len(idx.Streams()))
	for i, id := range idx.Streams() {
		fmt.Fprintf(stdout, "  s%d: %d records\n", id, len(idx.Records(i)))
	}
	return 0
}

func validate(args []string, stdout, stderr io.Writer) int {
	fs := flags("validate", stderr)
	quiet := fs.Bool("q", false, "print nothing; report by exit status only")
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	tr, code, err := decode(fs)
	switch {
	case err != nil && *quiet:
		return code
	case err != nil:
		return demo.Fail(fs, code, err)
	}
	if !*quiet {
		fmt.Fprintf(stdout, "valid: %d files, %d records, %d streams\n",
			len(tr.Files), len(tr.Records), len(tr.Streams()))
	}
	return 0
}
