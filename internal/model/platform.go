// Package model implements FaSTCC's probabilistic modeling (paper Section 5
// and Algorithm 7): it estimates the output tensor's density from the input
// densities, chooses between a dense and a sparse tile accumulator, and
// selects the tile size from the platform's last-level-cache capacity.
package model

import (
	"fmt"
	"runtime"
)

// Platform describes the machine parameters the model needs: core count,
// shared last-level cache capacity and the floating-point word size DT. The
// paper evaluates two platforms, reproduced here as profiles; Auto derives
// a profile for the current machine.
type Platform struct {
	Name      string
	Cores     int
	L3Bytes   int64
	WordBytes int64
}

// Desktop8 models the paper's 8-core Intel i7-11700F: 16 MiB shared L3.
// Its dense tile size works out to sqrt(2 MiB / 8 B) = 512.
var Desktop8 = Platform{Name: "desktop8", Cores: 8, L3Bytes: 16 << 20, WordBytes: 8}

// Server64 models the paper's 64-core Threadripper 3990X: 256 MiB shared
// L3. sqrt(4 MiB / 8 B) = 724, rounded down to the power of two 512.
var Server64 = Platform{Name: "server64", Cores: 64, L3Bytes: 256 << 20, WordBytes: 8}

// Auto returns a profile for the current machine: GOMAXPROCS cores and an
// assumed 2 MiB L3 share per core (typical of recent x86 parts; exact LLC
// detection is not portable from pure Go).
func Auto() Platform {
	n := runtime.GOMAXPROCS(0)
	return Platform{Name: "auto", Cores: n, L3Bytes: int64(n) * (2 << 20), WordBytes: 8}
}

// Validate checks that the platform parameters are usable.
func (p Platform) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("model: platform %q has %d cores", p.Name, p.Cores)
	}
	if p.L3Bytes <= 0 || p.WordBytes <= 0 {
		return fmt.Errorf("model: platform %q has invalid cache/word sizes", p.Name)
	}
	return nil
}
