// Package sim is a detrand fixture: a stand-in simulation package
// where wall-clock and ambient randomness are forbidden.
package sim

import (
	crand "crypto/rand" // want `import of crypto/rand in simulation code`
	"math/rand"         // want `import of math/rand in simulation code`
	"os"
	"strconv"
	"time"

	"dreamsim/internal/rng"
)

// Bad reaches for the host clock inside simulation code.
func Bad() int64 {
	start := time.Now()   // want `time.Now in simulation code`
	_ = time.Since(start) // want `time.Since in simulation code`
	_ = rand.Int()
	var b [8]byte
	_, _ = crand.Read(b[:])
	return start.UnixNano()
}

// BadEventDue decides a scheduled scenario event's firing against the
// host clock instead of the simulated tick counter — the exact bug
// that would make spike/maintenance/storm windows land on different
// ticks from run to run.
func BadEventDue(startTick int64) bool {
	return time.Now().Unix() >= startTick // want `time.Now in simulation code`
}

// BadEnvSeed salts a run's seed from the host environment. Every
// process on one machine reads the same values, so a cross-process
// determinism test there passes; the next host draws other streams.
func BadEnvSeed(seed uint64) *rng.RNG {
	salt, _ := strconv.ParseUint(os.Getenv("SEED_SALT"), 10, 64) // want `os.Getenv in simulation code`
	if _, fixed := os.LookupEnv("SEED_FIXED"); fixed {           // want `os.LookupEnv in simulation code`
		salt = 0
	}
	host, _ := os.Hostname()                                          // want `os.Hostname in simulation code`
	return rng.New(seed + salt + uint64(len(host)+len(os.Environ()))) // want `os.Environ in simulation code`
}

// Justified carries an explicit exception and stays silent.
func Justified() time.Time {
	//lint:detrand fixture: log timestamps are wall-clock by design
	return time.Now()
}

// Fine uses time only as a unit type, which is deterministic.
func Fine(d time.Duration) time.Duration {
	return d * 2
}
