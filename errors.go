package fastcc

import (
	"errors"

	"fastcc/internal/coo"
	"fastcc/internal/core"
)

// Typed errors. Every validation failure out of Contract, ContractPrepared,
// Preshard, Einsum, EinsumN and ParseEinsum wraps one of these sentinels
// (or is a *ShapeError), so callers branch with errors.Is / errors.As
// instead of string matching:
//
//	_, _, err := fastcc.Contract(l, r, spec)
//	var se *fastcc.ShapeError
//	switch {
//	case errors.As(err, &se):
//		log.Printf("left mode %d extent %d vs right mode %d extent %d",
//			se.LeftMode, se.LeftExtent, se.RightMode, se.RightExtent)
//	case errors.Is(err, fastcc.ErrBadSpec):
//		// malformed contraction spec (fix the call, not the data)
//	case errors.Is(err, fastcc.ErrBadOption):
//		// invalid or conflicting Option combination
//	}
var (
	// ErrShapeMismatch matches any structural shape failure: operand
	// validation errors and contracted-extent mismatches (the latter also
	// match as *ShapeError for mode/extent detail).
	ErrShapeMismatch = coo.ErrShape

	// ErrBadSpec matches a contraction Spec that is malformed independently
	// of the operand data: empty or unequal mode lists, out-of-range modes,
	// or a mode contracted twice.
	ErrBadSpec = coo.ErrBadSpec

	// ErrBadExpr matches an einsum expression that does not parse or does
	// not fit the engine's two-operand contraction form (see Einsum for the
	// accepted grammar).
	ErrBadExpr = errors.New("einsum: bad expression")

	// ErrBadOption matches an invalid or conflicting Option combination,
	// reported eagerly, before any work runs: negative WithThreads, tile
	// sides beyond 2^31, an unknown accumulator, a WithPlatform profile
	// with no cores or cache, a malformed WithTenant ID, or, under a forced
	// dense accumulator, a non-power-of-two right tile side or a tile
	// beyond the addressable positions. One case needs the model's
	// decision, so Contract and ContractPrepared report it only after
	// linearizing: a WithTileSize right side that is not a power of two
	// when the model picks the dense accumulator.
	ErrBadOption = core.ErrBadOption
)

// ShapeError reports a contracted-extent mismatch between the two operands,
// carrying mode/extent detail for errors.As callers. It unwraps to
// ErrShapeMismatch.
type ShapeError = coo.ShapeError
