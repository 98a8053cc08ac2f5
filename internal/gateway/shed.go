package gateway

import "fmt"

// ShedPolicy selects what Submit does when the bounded queue is full. All
// three policies are load-shedding strategies in the backpressure sense:
// Block pushes the pressure upstream, Reject converts it into an immediate
// typed error, DropOldest trades the oldest queued capture for the newest.
type ShedPolicy int

const (
	// ShedBlock blocks the submitter until queue space frees, the submit
	// context fires, or the gateway stops. Backpressure propagates to the
	// ingest source (a TCP peer stops being read, a file walk pauses).
	ShedBlock ShedPolicy = iota
	// ShedDropOldest evicts the oldest queued frame — which gets a shed
	// outcome — and enqueues the new one. Freshest-data-wins, for live
	// capture feeds where a stale collision is worthless.
	ShedDropOldest
	// ShedReject refuses the new frame with ErrQueueFull, leaving the
	// queue untouched. Oldest-data-wins, for replay/file ingestion where
	// every accepted frame must eventually be processed.
	ShedReject
)

// String implements fmt.Stringer with the names ParseShedPolicy accepts.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropOldest:
		return "drop-oldest"
	case ShedReject:
		return "reject"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy parses a policy name as printed by String.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "block":
		return ShedBlock, nil
	case "drop-oldest", "drop":
		return ShedDropOldest, nil
	case "reject":
		return ShedReject, nil
	default:
		return 0, fmt.Errorf("gateway: unknown shed policy %q (block, drop-oldest, reject)", s)
	}
}
