//go:build race

package emul

// The race detector instruments sync.Once and the counters' atomics and
// allocates for them, so allocation bounds hold for ordinary builds only.
func init() { raceDetector = true }
