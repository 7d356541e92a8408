// Package wcapp is the modified wc(1) of the paper's §4.3: it counts
// lines, words and bytes, either by a conventional sequential scan or by
// reading in the order the SLEDs pick library advises.
//
// Word counting is order-sensitive at chunk boundaries only (a word
// spanning two chunks must not be counted twice). The paper notes that
// "since the order of data access is not significant, little overhead is
// generated in modifying the code": the SLEDs variant counts each chunk
// independently and then reconciles adjacent chunk boundaries, exactly the
// boundary bookkeeping a real out-of-order wc needs.
package wcapp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"sort"

	"sleds/internal/apps/appenv"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
)

// scanRate is the modelled CPU cost of wc's byte classification loop
// (bytes/second on the paper's ~400 MHz test machine).
const scanRate = 30 * float64(1<<20)

// sledsChunkOverhead is the modelled per-chunk CPU cost of the SLEDs
// variant (pick-library call, lseek, boundary bookkeeping).
const sledsChunkOverhead = 25 * simclock.Microsecond

// defaultBufSize matches GNU wc's read buffer.
const defaultBufSize = 64 << 10

// Result is wc's output.
type Result struct {
	Lines int64
	Words int64
	Bytes int64
}

// isSpace matches wc's default word separators.
func isSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r', 0:
		return true
	}
	return false
}

// nonSpace classifies a byte without a branch: nonSpace[c] is 1 unless c
// is a word separator.
var nonSpace = func() (ns [256]uint8) {
	for c := range ns {
		if !isSpace(byte(c)) {
			ns[c] = 1
		}
	}
	return
}()

// lanes repeats a byte value in every lane of a uint64.
const lanes = 0x0101010101010101

// nonSpaceBits classifies b[0:8]: bit k is set iff b[k] is non-space.
// x7 is each lane's low seven bits, so a lane sum never carries into the
// next lane and its top bit answers one comparison: a byte is non-space
// iff it is not ' ', not 0 and not in [9,13] (x7+0x77 tops out from 9,
// x7+0x72 from 14), or is 0x80 and above. The multiply moves lane k's top
// bit to bit 56+k, its partial products on distinct bits (DESIGN.md).
func nonSpaceBits(b []byte) uint64 {
	x := binary.LittleEndian.Uint64(b)
	x7 := x & (0x7f * lanes)
	ns := (((x7^0x20*lanes)+0x7f*lanes)&(x7+0x7f*lanes)&(^(x7+0x77*lanes)|(x7+0x72*lanes)) | x) & (0x80 * lanes)
	return ns * 0x0002040810204081 >> 56
}

// count is wc's classification loop, written once for both read orders.
// inWord is nonSpace of the byte before p (0 at a file's or an isolated
// chunk's start), last that of p's final byte: a word starts at each
// non-space byte after one that was not. A 64-byte step counts the bits of
// m (one per byte) not in m<<1, the last block's top bit carried in; the
// table loop takes the tail. BenchmarkCount/kernel pins it at 0 allocs/op.
func count(p []byte, inWord uint8) (lines, words int64, last uint8) {
	lines = int64(bytes.Count(p, []byte{'\n'}))
	carry := uint64(inWord)
	for ; len(p) >= 64; p = p[64:] {
		b := (*[64]byte)(p)
		m := nonSpaceBits(b[0:]) | nonSpaceBits(b[8:])<<8 | nonSpaceBits(b[16:])<<16 | nonSpaceBits(b[24:])<<24 |
			nonSpaceBits(b[32:])<<32 | nonSpaceBits(b[40:])<<40 | nonSpaceBits(b[48:])<<48 | nonSpaceBits(b[56:])<<56
		words += int64(bits.OnesCount64(m &^ (m<<1 | carry)))
		carry = m >> 63
	}
	for _, c := range p {
		words += int64(uint64(nonSpace[c]) &^ carry)
		carry = uint64(nonSpace[c])
	}
	return lines, words, uint8(carry)
}

// countChunk counts a chunk in isolation: words are space->nonspace
// transitions with the chunk treated as if preceded by a space.
func countChunk(p []byte) (lines, words int64, startsNonSpace, endsNonSpace bool) {
	lines, words, last := count(p, 0)
	return lines, words, len(p) > 0 && nonSpace[p[0]] == 1, last == 1
}

// Run counts the file at path under env.
func Run(env *appenv.Env, path string) (Result, error) {
	if env.UseSLEDs {
		return runSLEDs(env, path)
	}
	return runLinear(env, path)
}

// runLinear is stock wc: one sequential pass.
func runLinear(env *appenv.Env, path string) (Result, error) {
	f, err := env.K.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()

	bufSize := env.BufSize
	if bufSize <= 0 {
		bufSize = defaultBufSize
	}
	buf := make([]byte, bufSize)
	var res Result
	var inWord uint8
	for {
		n, err := f.Read(buf)
		lines, words, last := count(buf[:n], inWord)
		inWord = last
		res.Lines += lines
		res.Words += words
		res.Bytes += int64(n)
		env.ChargeCPUBytes(int64(n), scanRate)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// boundaryInfo records what chunk-edge reconciliation needs.
type boundaryInfo struct {
	off            int64
	end            int64
	startsNonSpace bool
	endsNonSpace   bool
}

// runSLEDs is the SLEDs-aware wc: chunks are read in pick order, counted
// independently, and words double-counted across adjacent chunk edges are
// subtracted in a final reconciliation pass.
func runSLEDs(env *appenv.Env, path string) (Result, error) {
	f, err := env.K.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()

	picker, err := sledlib.PickInit(env.K, env.Table, f, sledlib.Options{BufSize: env.BufSize})
	if err != nil {
		return Result{}, err
	}
	defer picker.Finish()

	var res Result
	var edges []boundaryInfo
	var buf []byte
	for {
		off, n, err := picker.NextRead()
		if errors.Is(err, sledlib.ErrFinished) {
			break
		}
		if err != nil {
			return Result{}, err
		}
		if int64(len(buf)) < n {
			buf = make([]byte, n)
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
			return Result{}, err
		}
		lines, words, sns, ens := countChunk(buf[:n])
		res.Lines += lines
		res.Words += words
		res.Bytes += n
		edges = append(edges, boundaryInfo{off: off, end: off + n, startsNonSpace: sns, endsNonSpace: ens})
		env.ChargeCPUBytes(n, scanRate)
		env.ChargeCPU(sledsChunkOverhead)
	}

	// Reconcile: a word straddling the boundary between two adjacent
	// chunks was counted once in each; subtract the duplicates.
	sort.Slice(edges, func(i, j int) bool { return edges[i].off < edges[j].off })
	for i := 1; i < len(edges); i++ {
		if edges[i-1].end == edges[i].off && edges[i-1].endsNonSpace && edges[i].startsNonSpace {
			res.Words--
		}
	}
	env.ChargeCPU(simclock.Duration(len(edges)) * simclock.Microsecond)
	return res, nil
}
