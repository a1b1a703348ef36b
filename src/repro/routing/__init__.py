"""The paper's communication schemes (A, B, C) and the static baseline."""
