package sim

import "choir/internal/obs"

// Experiment-harness observability: per-trial outcome counters shared by
// every sweep that scores its decodes with scoreTrial (Scenario.DecodeWith
// and decodeCapture), plus team delivery counters for the end-to-end
// experiment. These summarize what a whole run did (trials attempted,
// payloads offered vs. recovered) without touching any per-figure
// accounting, and record nothing unless obs.Enable has been called.
var (
	mTrials            = obs.NewCounter("sim.trials")
	mTrialDecodeErrs   = obs.NewCounter("sim.trials.decode_err")
	mPayloadsExpected  = obs.NewCounter("sim.payloads.expected")
	mPayloadsRecovered = obs.NewCounter("sim.payloads.recovered")
	mTeamTrials        = obs.NewCounter("sim.team.trials")
	mTeamDelivered     = obs.NewCounter("sim.team.delivered")
)
