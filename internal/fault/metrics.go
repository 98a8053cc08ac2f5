package fault

import "choir/internal/obs"

// Fault-injection observability: one hit counter per fault class, bumped
// only when an Apply call actually corrupts samples (zero-intensity and
// empty-input calls are exact no-ops and are not counted). Recording is
// gated on obs.Enable.
var mHits = func() [numClasses]*obs.Counter {
	var hits [numClasses]*obs.Counter
	for _, c := range Classes() {
		hits[c] = obs.NewCounter("fault.hits." + c.String())
	}
	return hits
}()
