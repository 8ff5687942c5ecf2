package exp

import "hswsim/internal/slots"

// sched is the process-wide compute-slot pool every experiment shares
// (see internal/slots). Both concurrency levels of a suite run draw on
// it — RunSuite holds one slot per in-flight experiment, parallelMap's
// helper workers each hold one while they participate in a point sweep
// — and the fleet driver's node steps fan out through the same pool,
// so the machine stays saturated without oversubscription regardless
// of how the levels interleave.
var sched = slots.Default()
