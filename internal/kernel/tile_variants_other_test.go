//go:build !amd64

package kernel

// regularizedCoulombGradVariants is empty where the package has no
// assembly gradient bodies.
func regularizedCoulombGradVariants() []gradVariant { return nil }
