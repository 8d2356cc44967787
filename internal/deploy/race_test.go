//go:build race

package deploy

// Under the race detector sync.Pool drops a quarter of what is put back, so
// archive/tar's pooled 8 KB discard buffer is allocated again for about that
// share of entries: allocation bounds hold for ordinary builds only.
func init() { raceDetector = true }
