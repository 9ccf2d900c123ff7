package server

// ScratchRetained reports the connection scratch sets s keeps for its
// next connections, the columns in their rings, and the bytes all of
// it holds allocated.
func (s *Server) ScratchRetained() (sets, cols, bytes int) {
	sets, bytes = s.scratch.Retained(func(sc *connScratch) int {
		n := sc.br.Size() + sc.bw.Size() + cap(sc.frame)
		for range len(sc.cols) {
			c := <-sc.cols
			cols++
			n += c.Footprint()
			sc.cols <- c
		}
		return n
	})
	return sets, cols, bytes
}

// MaxControlBody is the admin request body cap.
const MaxControlBody = maxControlBody
