//go:build !kminvariants

package relative

// CheckInvariants is a no-op in default builds; compile with
// -tags kminvariants for the deep checks.
func (d *Delta) CheckInvariants() error { return nil }
