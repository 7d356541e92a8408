package workload

import "fmt"

// Resize changes the logical size. Shrinking hides generated content for
// good and discards written pages beyond the new size; growing exposes
// zeros, as growing a file does.
func (c *Content) Resize(size int64) {
	if size < 0 {
		panic(fmt.Sprintf("workload: negative size %d", size))
	}
	c.size = size
	if size < c.genSize {
		c.genSize = size
	}
	if last := c.Pages(); last < int64(len(c.written)) {
		c.written = c.written[:last]
	}
}
