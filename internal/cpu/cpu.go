// Package cpu reports, once at start-up, whether this CPU and operating
// system run the AVX2 kernels of packages dsp and choir. It is the program's
// one CPUID+XGETBV check; every kernel dispatch reads AVX2.
package cpu

// AVX2 is true when the CPU has AVX2 and the operating system saves the YMM
// registers across context switches. It is set when the program starts and
// is always false off amd64. The kernels it selects are exact-order: they
// give the generic Go kernels' bits (DESIGN.md §12), so nothing but speed
// depends on it. Tests clear it to run the generic kernels.
var AVX2 = hasAVX2()
