package clienttimeout

import nh "net/http"

// Test files may build throwaway clients freely; nothing here is
// diagnosed.
var testClient = nh.Client{}
