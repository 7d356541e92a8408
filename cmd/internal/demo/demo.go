// Package demo holds what the command-line tools share: the warm pass
// before a measurement, the timed with/without-SLEDs run, and how a tool
// reports a usage or run error.
package demo

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"sleds"
	"sleds/internal/apps/appenv"
	"sleds/internal/simclock"
)

// Warm reads the file at path from off to its end in one linear pass, as
// the experiments warm a file before they time a run over it.
func Warm(sys *sleds.System, path string, off int64) error {
	f, err := sys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, f)
	return err
}

// modes labels the two runs of a comparison, padded to one width.
var modes = map[bool]string{false: "without SLEDs", true: "with SLEDs   "}

// Timed warms the file at path, zeroes the run counters and runs app with
// or without SLEDs. It returns the run's mode label, padded to one width,
// and the virtual seconds app took.
func Timed(sys *sleds.System, path string, useSLEDs bool, app func(*appenv.Env) error) (string, float64, error) {
	if err := Warm(sys, path, 0); err != nil {
		return "", 0, err
	}
	sys.ResetStats()
	start := sys.Now()
	if err := app(sys.Env(useSLEDs)); err != nil {
		return "", 0, err
	}
	return modes[useSLEDs], float64(sys.Now()-start) / float64(simclock.Second), nil
}

// ParseExit is the exit code after a ContinueOnError FlagSet's Parse
// fails, having printed why: 0 after -h, 2 for a usage error.
func ParseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// Fail prints err after the tool's name to the flag set's output and
// returns code, the tool's exit status: 2 for a usage error, 1 for a run
// error.
func Fail(fs *flag.FlagSet, code int, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return code
}
