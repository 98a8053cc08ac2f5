package exec

import "choir/internal/obs"

// Worker-pool observability: how many tasks were fanned out, how long each
// task ran, how long tasks sat queued before a worker picked them up, and
// the pool's utilization expressed as two raw counters — busy_ns (summed
// task runtime) over capacity_ns (wall-clock elapsed × workers). Deriving
// utilization as busy/capacity is left to the consumer so the snapshot
// stays a plain counter dump. All recording is gated on obs.Enable; the
// disabled path is branch-only and allocation-free.
var (
	mPoolTasks      = obs.NewCounter("exec.pool.tasks")
	mPoolBusyNS     = obs.NewCounter("exec.pool.busy_ns")
	mPoolCapacityNS = obs.NewCounter("exec.pool.capacity_ns")
	mPoolTaskNS     = obs.NewTimer("exec.pool.task_ns")
	mPoolQueueWait  = obs.NewHistogram("exec.pool.queue_wait_ns")
	mPoolCanceled   = obs.NewCounter("exec.pool.canceled")
)
