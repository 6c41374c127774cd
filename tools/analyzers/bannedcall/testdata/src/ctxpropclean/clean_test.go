package ctxpropclean

import "context"

// Test files may manufacture contexts freely.
var testCtx = context.Background()
