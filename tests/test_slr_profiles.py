"""Tests for SLR's replacement profiles (Table I alternative families).

The default ``glib`` profile truncates oversized operations; the ``c11``
profile (ISO/IEC TR 24731 / Annex K) *rejects* them — empty destination,
nonzero errno_t — which is the other safe-function family Table I lists.
"""

import pytest

from repro.core.slr import (
    C11_ALTERNATIVES, SAFE_ALTERNATIVES, SafeLibraryReplacement,
)

from .helpers import pp, run

PRELUDE = ("#include <stdio.h>\n#include <string.h>\n"
           "#include <stdlib.h>\n#include <stdarg.h>\n")


def slr(src: str, profile: str):
    return SafeLibraryReplacement(pp(src), "t.c", profile=profile).run()


class TestProfileSelection:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            SafeLibraryReplacement(pp(PRELUDE), "t.c", profile="win32")

    def test_families_cover_same_functions(self):
        assert set(C11_ALTERNATIVES) == set(SAFE_ALTERNATIVES)


class TestC11Rewrites:
    def test_strcpy_s_signature(self):
        result = slr(PRELUDE + """
        void f(const char *s) { char b[16]; strcpy(b, s); }""", "c11")
        assert "strcpy_s(b, sizeof(b), s)" in result.new_text

    def test_strcat_s_signature(self):
        result = slr(PRELUDE + """
        void f(void) { char b[16]; b[0]='\\0'; strcat(b, "x"); }""",
                     "c11")
        assert 'strcat_s(b, sizeof(b), "x")' in result.new_text

    def test_sprintf_s_signature(self):
        result = slr(PRELUDE + """
        void f(int v) { char b[16]; sprintf(b, "%d", v); }""", "c11")
        assert 'sprintf_s(b, sizeof(b), "%d", v)' in result.new_text

    def test_vsprintf_s_signature(self):
        result = slr(PRELUDE + """
        void logit(const char *fmt, ...) {
            char b[64];
            va_list ap;
            va_start(ap, fmt);
            vsprintf(b, fmt, ap);
            va_end(ap);
        }""", "c11")
        assert "vsprintf_s(b, sizeof(b), fmt, ap)" in result.new_text

    def test_memcpy_s_signature(self):
        result = slr(PRELUDE + """
        void f(const char *s, unsigned long n) {
            char b[16];
            memcpy(b, s, n);
        }""", "c11")
        assert "memcpy_s(b, sizeof(b), s, n)" in result.new_text

    def test_gets_s_no_epilogue(self):
        result = slr(PRELUDE + """
        void f(void) { char b[16]; gets(b); }""", "c11")
        assert "gets_s(b, sizeof(b))" in result.new_text
        # Unlike the fgets rewrite, no newline-strip epilogue is needed
        # (string.h's strchr *declaration* is still present, of course).
        assert "strchr(b" not in result.new_text
        assert "check" not in result.new_text

    def test_declarations_injected(self):
        result = slr(PRELUDE + """
        void f(const char *s) { char b[16]; strcpy(b, s); }""", "c11")
        assert "int strcpy_s(char *dest" in result.new_text


class TestC11RuntimeSemantics:
    def test_fitting_copy_succeeds(self):
        source = PRELUDE + """
        int main(void) {
            char b[16];
            strcpy(b, "short");
            printf("%s\\n", b);
            return 0;
        }"""
        result = slr(source, "c11")
        out = run(result.new_text, preprocess=False)
        assert out.ok
        assert out.stdout_text == "short\n"

    def test_oversized_copy_rejected_not_truncated(self):
        source = PRELUDE + """
        int main(void) {
            char b[4];
            strcpy(b, "much too long");
            printf("[%s]\\n", b);
            return 0;
        }"""
        result = slr(source, "c11")
        out = run(result.new_text, preprocess=False)
        assert out.ok
        # Annex K constraint handling: empty destination, no truncation.
        assert out.stdout_text == "[]\n"

    def test_glib_truncates_where_c11_rejects(self):
        source = PRELUDE + """
        int main(void) {
            char b[4];
            strcpy(b, "abcdef");
            printf("[%s]\\n", b);
            return 0;
        }"""
        glib_out = run(slr(source, "glib").new_text, preprocess=False)
        c11_out = run(slr(source, "c11").new_text, preprocess=False)
        assert glib_out.stdout_text == "[abc]\n"
        assert c11_out.stdout_text == "[]\n"

    def test_memcpy_s_zeroes_on_violation(self):
        source = PRELUDE + """
        int main(void) {
            char b[8];
            char big[64];
            memset(b, 'x', 7);
            b[7] = '\\0';
            memset(big, 'B', 63);
            big[63] = '\\0';
            memcpy(b, big, 64);
            printf("%d\\n", b[0]);
            return 0;
        }"""
        result = slr(source, "c11")
        out = run(result.new_text, preprocess=False)
        assert out.ok
        assert out.stdout_text == "0\n"     # destination zeroed

    def test_gets_s_discards_long_line(self):
        source = PRELUDE + """
        int main(void) {
            char b[8];
            b[0] = '?';
            b[1] = '\\0';
            gets(b);
            printf("[%s]\\n", b);
            return 0;
        }"""
        result = slr(source, "c11")
        out = run(result.new_text, preprocess=False,
                  stdin=b"waytoolongforthebuffer\n")
        assert out.ok
        assert out.stdout_text == "[]\n"

    def test_gets_s_reads_fitting_line(self):
        source = PRELUDE + """
        int main(void) {
            char b[16];
            gets(b);
            printf("[%s]\\n", b);
            return 0;
        }"""
        result = slr(source, "c11")
        out = run(result.new_text, preprocess=False, stdin=b"ok\n")
        assert out.ok
        assert out.stdout_text == "[ok]\n"

    def test_sprintf_s_rejects_overflow(self):
        source = PRELUDE + """
        int main(void) {
            char b[4];
            int n = sprintf(b, "%d", 123456);
            printf("%d [%s]\\n", n, b);
            return 0;
        }"""
        result = slr(source, "c11")
        out = run(result.new_text, preprocess=False)
        assert out.ok
        assert out.stdout_text == "-1 []\n"

    def test_user_constraint_handler_is_invoked(self):
        src = """\
int printf(const char *format, ...);
int strcpy_s(char *dest, unsigned long n, const char *src);
void set_constraint_handler_s(
    void (*h)(const char *msg, void *ptr, int error));
void mine(const char *msg, void *ptr, int error) {
    printf("handler:%d\\n", error);
}
int main(void) {
    char buf[4];
    set_constraint_handler_s(mine);
    strcpy_s(buf, 4, "far too long");
    printf("after\\n");
    return 0;
}
"""
        result = run(src, preprocess=False)
        assert result.fault is None
        assert b"handler:" in result.stdout
        assert b"after" in result.stdout

    def test_both_profiles_fix_every_overflow(self):
        source = PRELUDE + """
        int main(void) {
            char a[4], b[4], c[4];
            strcpy(a, "overflowing");
            sprintf(b, "%d", 1234567);
            memcpy(c, "0123456789", 10);
            return 0;
        }"""
        before = run(source)
        assert before.fault == "buffer-overflow"
        for profile in ("glib", "c11"):
            fixed = slr(source, profile)
            assert fixed.transformed_count == 3
            out = run(fixed.new_text, preprocess=False)
            assert out.ok, (profile, out.fault_detail)
