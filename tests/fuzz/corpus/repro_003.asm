# kind: asm
# triage: error-sync|NullPointerError
# Null receiver inside a LOAD;GETFIELD;STORE window that quickened to
# one superinstruction in the hand-picked table of the time (the
# PUSH 1; POP broke the preceding pair so the triple formed; the
# measured table fuses LOAD;GETFIELD here).  The superinstruction
# charges the whole window up front; pre-fix the null fault kept the
# trailing STORE's cost and step the raw run never executed, and
# skipped the counter sync entirely.
class P fields v
func main/0 locals=2 void
  PUSH 101
  PRINT
  PUSH_NULL
  STORE 0
  PUSH 1
  POP
  LOAD 0
  GETFIELD P.v
  STORE 1
  RETURN
end
