package clienttimeout

import nh "net/http"

// Test files may build throwaway clients and use the default one freely;
// nothing here is diagnosed.
var testClient = nh.Client{}

var testDefault = nh.DefaultClient

func testGet() { nh.Get("http://x/") }
