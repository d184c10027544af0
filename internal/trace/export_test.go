package trace

// CancelTestTrace exposes the cancellation suite's trace builder to the
// external test package.
var CancelTestTrace = cancelTestTrace
