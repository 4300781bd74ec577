# kind: asm
# triage: error-sync|DivisionByZeroError
# Literal PUSH 0; MOD.  The fuse-time guard must keep the pair raw and
# the raw MOD handler must fault with synced counters; the fused
# PUSH;MOD handler (reached when the immediate is patched to zero)
# previously crashed the host with a Python ZeroDivisionError.
func main/0 locals=1 void
  PUSH 23
  PUSH 0
  MOD
  PRINT
  RETURN
end
