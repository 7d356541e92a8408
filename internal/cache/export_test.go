package cache

// ResetStats zeroes the activity counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// DirtyPages reports how many of the file's resident pages are dirty.
func (c *Cache) DirtyPages(file uint64) int {
	if fi := c.file(file); fi != nil {
		return fi.dirty
	}
	return 0
}
