// Package appenv bundles what every modified application needs to run
// against the simulated machine: the kernel, the filled sleds table, and
// the SLEDs on/off switch (the paper added a command-line switch to each
// utility "that allows the user to choose whether or not to use SLEDs").
package appenv

import (
	"sleds/internal/core"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// Env is the execution environment of one application run.
type Env struct {
	K     *vfs.Kernel
	Table *core.Table

	// UseSLEDs selects the SLEDs-aware code path.
	UseSLEDs bool

	// BufSize is the application read-chunk size; 0 means the
	// application's default.
	BufSize int64
}

// ChargeCPUBytes charges modelled CPU processing cost for n bytes at rate
// bytesPerSec.
func (e *Env) ChargeCPUBytes(n int64, bytesPerSec float64) {
	e.K.ChargeCPUBytes(n, bytesPerSec)
}

// ChargeCPU charges a fixed modelled CPU cost.
func (e *Env) ChargeCPU(d simclock.Duration) {
	e.K.ChargeCPU(d)
}
