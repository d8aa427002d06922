package xquery

// CompareBackends exposes the program/interpreter comparison to the
// external test package (rulebodies_test.go), which compiles applications
// with internal/rule and so cannot live in package xquery.
var CompareBackends = compareBackends
