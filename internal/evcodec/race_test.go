//go:build race

package evcodec

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of what it is given, so pool-reuse tests cannot hold.
const raceEnabled = true
