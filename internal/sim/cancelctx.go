package sim

import "context"

// CancelFromContext binds a fresh Cancel token to ctx: when ctx is done,
// the token fires with the context's cause as the reason. The binding
// lives until ctx is done, so ctx should be scoped to one job.
//
// core.NewMachine calls it once per machine whose Config.Context can be
// cancelled and arms the token on the machine's engine, which then
// aborts at its next executed event.
func CancelFromContext(ctx context.Context) *Cancel {
	c := &Cancel{}
	context.AfterFunc(ctx, func() {
		reason := "context cancelled"
		if err := context.Cause(ctx); err != nil {
			reason = err.Error()
		}
		c.Request(reason)
	})
	return c
}
