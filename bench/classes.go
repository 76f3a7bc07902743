package main

import "strings"

// classOpcodes lists, per instruction class of the per-layer vector, the
// opcodes (the names of the engine's "instr" spans) that belong to it. An
// opcode that is not listed lands in "other", whose share of instruction time
// the smoke test keeps under 5% on every workload. "min" and "max" name both
// the binary cellwise operator and the full aggregate; the workloads use the
// cellwise form on matrices and the aggregate on a handful of cells, so they
// count as cellwise.
var classOpcodes = map[string]string{
	"matmult": `ba+* tsmm mmchain`,
	"reorg":   `r' rdiag rev order cbind rbind removeEmpty selectRows`,
	"cellwise": `+ - * / ^ %% %/% < <= > >= == != & | ! min max uminus abs exp log sqrt round floor ceil
		sign sin cos tan sigmoid is.nan replace ifelse as.double as.integer as.logical`,
	"agg": `sum sumsq mean var sd trace median nnz cumsum quantile table rowIndexMax
		colSums colMeans colMaxs colMins colVars colSds rowSums rowMeans rowMaxs rowMins`,
	"solve":        `solve inv cholesky eigen`,
	"index":        `rightIndex leftIndex`,
	"datagen":      `rand fill seq sample`,
	"io_transform": `read write transformencode transformapply recode dummycode scale bin impute`,
	"fcall_ctrl":   `fcall assignvar rmvar print stop assert compress nrow ncol length castdts castsdm`,
}

var opcodeClasses = func() map[string]string {
	m := map[string]string{}
	for class, ops := range classOpcodes {
		for _, op := range strings.Fields(ops) {
			m[op] = class
		}
	}
	return m
}()

func opcodeClass(opcode string) string {
	if c, ok := opcodeClasses[opcode]; ok {
		return c
	}
	// fused cellwise-aggregate pipelines are named fagg_<aggregate>
	if strings.HasPrefix(opcode, "fagg_") {
		return "agg"
	}
	return "other"
}
