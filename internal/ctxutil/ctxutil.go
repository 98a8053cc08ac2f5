// Package ctxutil is the single home of the repository's context contract.
// Every blocking entry point takes a context.Context first — the choir
// decoder (Decode), the exec fan-out engine (ForEach), the MAC simulator
// (Run), the city engine and the gateway (Submit, Drain, the ingest helpers)
// — and each needs the same two checks: "nil means never cancels" and "a
// context whose Done channel is nil can never fire, so skip the polling
// machinery for it". Those checks live here so the contract is stated (and
// tested) once:
//
//   - A nil context, context.Background() and context.TODO() are all
//     legitimate "never cancels" values. Callers may not panic on them and
//     must produce results bit-identical to each other.
//   - Whether a context can fire is decided by its Done channel being
//     non-nil, per the context.Context documentation ("Done may return nil
//     if this context can never be canceled"). Err() alone is not a signal:
//     a custom context may keep Err() nil until polled.
package ctxutil

import "context"

// CanFire reports whether ctx could ever be canceled: it is non-nil and its
// Done channel is non-nil. Pipelines use this to skip installing their
// cancellation machinery — a context that cannot fire must leave results
// bit-identical to no context at all, and the cheapest way to guarantee
// that is to not poll it.
func CanFire(ctx context.Context) bool {
	return ctx != nil && ctx.Done() != nil
}

// Background normalizes an optional context for callers that need a non-nil
// ctx to select on or take Err() from: nil becomes context.Background(),
// anything else passes through unchanged. Selecting on Background's nil
// Done channel blocks forever and its Err() is always nil, which is exactly
// the "never cancels" behavior the nil stood for.
func Background(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
