package trace

// ReadCapped exposes ReadStream's capped read with an explicit cap, so
// tests can reach the cap without a gigabyte of input.
var ReadCapped = readCapped
