//go:build !race

package evcodec

const raceEnabled = false
