//go:build slow

package query

func init() { differentialScales = append(differentialScales, 0.3, 1) }
