package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"sleds/internal/core"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
)

// The sweep shapes the experiments share, one helper each. They fix the
// order of operations, not the measurement: per-point seeds, the grid
// index a point runs at and `measured` stay with the experiment.

// modeNames names the two columns of a with/without sweep; the column
// index is the mode (1 = with SLEDs), and figures render the with-SLEDs
// series first.
var modeNames = []string{"without SLEDs", "with SLEDs"}

// gridSeries runs point over a rows x len(names) grid on cfg's worker
// pool — grid index i is (row i/cols, column i%cols), column fastest — and
// returns one Series per column, named names[col], holding that column's
// points in row order (cfg as under RunGrid). A cell with a second product
// writes it to its own (row, col) slot of a slice the caller owns, as
// RunGrid itself does: distinct slots, read only after the grid returns.
func gridSeries(cfg Config, rows int, names []string, point func(cfg Config, row, col int) (Point, error)) ([]Series, error) {
	cols := len(names)
	points, err := RunGrid(cfg, rows*cols, func(cfg Config, i int) (Point, error) { return point(cfg, i/cols, i%cols) })
	if err != nil {
		return nil, err
	}
	series := make([]Series, cols)
	for col, name := range names {
		series[col] = Series{Name: name, Points: make([]Point, rows)}
	}
	for i, p := range points {
		series[i%cols].Points[i/cols] = p
	}
	return series, nil
}

// twoModeFigure runs run(0) and run(1) as a two-point grid and plots the
// two elapsed times against the mode; notes says what the modes are.
func twoModeFigure(cfg Config, id, title, notes string, run func(cfg Config, mode int) (float64, error)) (Figure, error) {
	secs, err := RunGrid(cfg, 2, run)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: id, Title: title, XLabel: "mode", YLabel: "seconds",
		Series: []Series{{Name: "elapsed", Points: []Point{{X: 0, Mean: secs[0]}, {X: 1, Mean: secs[1]}}}},
		Notes:  notes,
	}, nil
}

// eofOK maps the io.EOF a read ending at end of file returns to success.
func eofOK(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// warmRange pages [off, off+n) of path in with one request through pageIn
// — (*vfs.File).PageIn, charged as ReadAt, or PageInMapped where the
// earlier consumer being modelled paged the data in without copying it —
// so those pages are resident (and staged, on an HSM or a remote mount)
// before a measurement starts. A warm-up the retry policy gives up on
// fails the point: a half-warm cache is not the scenario the experiment
// describes.
func warmRange(k *vfs.Kernel, path string, off, n int64, pageIn func(f *vfs.File, off, n int64) (int64, error)) error {
	f, err := k.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := pageIn(f, off, n); eofOK(err) != nil {
		return fmt.Errorf("warming %s [%d,+%d): %w", path, off, n, err)
	}
	return nil
}

// warmTextFile boots a Unix machine holding /data/testfile (size bytes of
// text on ext2) and reads it once front to back, as an earlier run of a
// linear consumer would have: the cache is left holding the file's tail.
// The open file is returned for the caller's measured pass.
func warmTextFile(cfg Config, seed uint64, size int64) (*Machine, *vfs.File, error) {
	m, err := BootMachine(cfg, ProfileUnix)
	if err != nil {
		return nil, nil, err
	}
	if _, err := textFileOn(m, "ext2", seed, size, cfg.PageSize); err != nil {
		return nil, nil, err
	}
	f, err := m.K.Open("/data/testfile")
	if err != nil {
		return nil, nil, err
	}
	if _, err := io.Copy(io.Discard, f); err != nil {
		return nil, nil, fmt.Errorf("warm pass: %w", err)
	}
	return m, f, nil
}

// scanPicks drives the picker to ErrFinished, calling visit(i, off, n)
// for the i-th chunk it hands out.
func scanPicks(p *sledlib.Picker, visit func(i int, off, n int64) error) error {
	for i := 0; ; i++ {
		off, n, err := p.NextRead()
		if errors.Is(err, sledlib.ErrFinished) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := visit(i, off, n); err != nil {
			return err
		}
	}
}

// streamColdRead times a linear page-in of /data/testfile's first size
// bytes from power-on device state. Page-in only (the mapped path), in
// 256 KiB requests as lmbench's bandwidth probe issues them: a delivery
// estimate covers retrieval, not the user-space copy or per-request overhead.
func streamColdRead(m *Machine, size int64) (float64, error) {
	const stream = int64(256 << 10)
	f, err := m.K.Open("/data/testfile")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	m.K.ResetDeviceState()
	return elapsedSeconds(m.K, func() error {
		for off := int64(0); off < size; off += stream {
			if _, err := f.PageInMapped(off, min(stream, size-off)); eofOK(err) != nil {
				return err
			}
		}
		return nil
	})
}

// fileSetOrder is sledlib.FileSetOrder with its failure surfaced: a file
// whose SLEDs cannot be determined sorts last with an infinite estimate,
// which an experiment must not mistake for a routing decision.
func fileSetOrder(m *Machine, paths []string, plan core.Plan) ([]string, error) {
	order, est := sledlib.FileSetOrder(m.K, m.Table, paths, plan)
	for i, e := range est {
		if math.IsInf(e, 1) {
			return nil, fmt.Errorf("no SLEDs for %s", order[i])
		}
	}
	return order, nil
}
