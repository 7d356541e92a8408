package hsm

// StagedBlocks reports how many blocks are currently resident on disk.
func (s *Stager) StagedBlocks() int { return s.stage.Len() }
