package fleet

import "sleds/internal/iosched"

// ReadProgram wraps one read as a complete Program, the single-shot client
// the tests drive. The outcome lands in *out.
func (f *Fleet) ReadProgram(policy Policy, off, n int64, out *Read) iosched.Program {
	rd := f.StartRead(policy, off, n)
	return iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
		op, done := rd.Step(h, prev)
		if done {
			if out != nil {
				*out = *rd
			}
			return iosched.Exit(rd.Err)
		}
		return op
	})
}
