package cache

// ResetStats zeroes the activity counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Pages returns the number of pages in the run.
func (r Run) Pages() int64 { return r.End - r.Start }

// DirtyPages reports how many of the file's resident pages are dirty.
func (c *Cache) DirtyPages(file uint64) int {
	if fi := c.file(file); fi != nil {
		return fi.dirty
	}
	return 0
}
