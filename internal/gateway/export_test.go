package gateway

// WaitUntil is waitUntil for the external tests of package gateway_test.
var WaitUntil = waitUntil
