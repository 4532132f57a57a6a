//go:build slow

package autobias

func init() { armgOracleBudgets = append(armgOracleBudgets, 0) }
