package systemds

import "github.com/systemds/systemds-go/internal/matrix"

// PoisonRecycled switches NaN-filling of the arrays an engine's free list
// takes back on or off, so a test can tell a reader of a recycled array by
// the NaNs in its result.
var PoisonRecycled = matrix.PoisonRecycled
