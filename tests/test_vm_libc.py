"""Tests for the VM's native libc: unsafe semantics, safe alternatives,
printf formatting, stdio, and the stralloc runtime."""

import pytest

from .helpers import run

P = "#include <stdio.h>\n#include <string.h>\n#include <stdlib.h>\n"


def out(src: str, **kwargs) -> str:
    result = run(P + src, **kwargs)
    assert result.ok, f"unexpected fault: {result.fault_detail}"
    return result.stdout_text


class TestPrintfFormatting:
    def test_widths_and_flags(self):
        assert out("""int main(void){
            printf("[%5d][%-5d][%05d]\\n", 42, 42, 42);
            return 0; }""") == "[   42][42   ][00042]\n"

    def test_precision_on_strings(self):
        assert out("""int main(void){
            printf("%.3s\\n", "abcdef");
            return 0; }""") == "abc\n"

    def test_hex_octal_unsigned(self):
        assert out("""int main(void){
            printf("%x %X %#x %o %u\\n", 255, 255, 255, 8, 7);
            return 0; }""") == "ff FF 0xff 10 7\n"

    def test_precision_pads_integers(self):
        # %.3o prints at least 3 octal digits — the LibTIFF CVE idiom.
        assert out("""int main(void){
            printf("\\\\%.3o\\n", 7);
            return 0; }""") == "\\007\n"

    def test_sign_extended_octal_is_eleven_digits(self):
        # (char)0x80 sign-extends to int -128 -> unsigned 0xFFFFFF80.
        assert out("""int main(void){
            char c = (char)0x80;
            printf("%.3o\\n", c);
            return 0; }""") == "37777777600\n"

    def test_long_conversions(self):
        assert out("""int main(void){
            unsigned long big = 4294967296UL;
            printf("%lu %ld\\n", big, (long)-5);
            return 0; }""") == "4294967296 -5\n"

    def test_char_and_percent(self):
        assert out("""int main(void){
            printf("%c%c 100%%\\n", 'o', 'k');
            return 0; }""") == "ok 100%\n"

    def test_star_width(self):
        assert out("""int main(void){
            printf("[%*d]\\n", 6, 42);
            return 0; }""") == "[    42]\n"

    def test_float_formats(self):
        assert out("""int main(void){
            printf("%f %.2f %e\\n", 1.5, 3.14159, 0.5);
            return 0; }""") == "1.500000 3.14 5.000000e-01\n"

    def test_null_string(self):
        assert out("""int main(void){
            char *p = NULL;
            printf("%s\\n", p);
            return 0; }""") == "(null)\n"

    def test_sprintf_returns_length(self):
        assert out("""int main(void){
            char b[32];
            int n = sprintf(b, "%d-%d", 12, 34);
            printf("%d %s\\n", n, b);
            return 0; }""") == "5 12-34\n"

    def test_snprintf_truncates(self):
        assert out("""int main(void){
            char b[5];
            snprintf(b, sizeof(b), "abcdefgh");
            printf("%s\\n", b);
            return 0; }""") == "abcd\n"

    def test_sprintf_overflow_faults(self):
        result = run(P + """int main(void){
            char b[4];
            sprintf(b, "%d", 123456);
            return 0; }""")
        assert result.fault == "buffer-overflow"


class TestUnsafeStringFunctions:
    def test_strcpy_copies(self):
        assert out("""int main(void){
            char b[8];
            strcpy(b, "abc");
            printf("%s\\n", b);
            return 0; }""") == "abc\n"

    def test_strcpy_overflow_faults_at_exact_byte(self):
        result = run(P + """int main(void){
            char b[4];
            strcpy(b, "abcd");
            return 0; }""")
        assert result.fault == "buffer-overflow"
        assert "offset 4" in result.fault_detail

    def test_strcat_appends(self):
        assert out("""int main(void){
            char b[16] = "foo";
            strcat(b, "bar");
            printf("%s\\n", b);
            return 0; }""") == "foobar\n"

    def test_strcat_overflow(self):
        result = run(P + """int main(void){
            char b[6] = "foo";
            strcat(b, "bar");
            return 0; }""")
        assert result.fault == "buffer-overflow"

    def test_strncpy_pads_with_nul(self):
        assert out("""int main(void){
            char b[6];
            strncpy(b, "ab", 5);
            printf("%d %d %s\\n", b[3], b[4], b);
            return 0; }""") == "0 0 ab\n"

    def test_strcmp_and_strncmp(self):
        assert out("""int main(void){
            printf("%d %d %d %d\\n",
                   strcmp("a", "a"), strcmp("a", "b") < 0,
                   strcmp("b", "a") > 0, strncmp("abc", "abd", 2));
            return 0; }""") == "0 1 1 0\n"

    def test_strchr_strrchr_strstr(self):
        assert out("""int main(void){
            const char *s = "hello world";
            printf("%s|%s|%s\\n", strchr(s, 'o'), strrchr(s, 'o'),
                   strstr(s, "lo w"));
            return 0; }""") == "o world|orld|lo world\n"

    def test_strcspn(self):
        assert out("""int main(void){
            printf("%d %d %d\\n",
                   (int)strcspn("hello\\n", "\\n"),
                   (int)strcspn("no newline", "\\n"),
                   (int)strcspn("", "abc"));
            return 0; }""") == "5 10 0\n"

    def test_strdup(self):
        assert out("""int main(void){
            char *d = strdup("copy me");
            d[0] = 'C';
            printf("%s\\n", d);
            free(d);
            return 0; }""") == "Copy me\n"

    def test_memcmp_memchr(self):
        assert out("""int main(void){
            const char *s = "xyzzy";
            printf("%d %s\\n", memcmp("ab", "ab", 2),
                   (char*)memchr(s, 'z', 5));
            return 0; }""") == "0 zzy\n"


class TestSafeAlternatives:
    def test_g_strlcpy_truncates_and_terminates(self):
        assert out("""#include <glib.h>
        int main(void){
            char b[4];
            unsigned long want = g_strlcpy(b, "abcdef", sizeof(b));
            printf("%s %lu\\n", b, want);
            return 0; }""") == "abc 6\n"

    def test_g_strlcat_respects_limit(self):
        assert out("""#include <glib.h>
        int main(void){
            char b[8] = "one";
            g_strlcat(b, "twothree", sizeof(b));
            printf("%s\\n", b);
            return 0; }""") == "onetwot\n"

    def test_g_snprintf_bounds(self):
        assert out("""#include <glib.h>
        int main(void){
            char b[6];
            g_snprintf(b, sizeof(b), "%d%d%d", 111, 222, 333);
            printf("%s\\n", b);
            return 0; }""") == "11122\n"


class TestStdinStdout:
    def test_gets_reads_line(self):
        assert out("""int main(void){
            char b[32];
            gets(b);
            printf("got:%s\\n", b);
            return 0; }""", stdin=b"typed\n") == "got:typed\n"

    def test_gets_overflow(self):
        result = run(P + """int main(void){
            char b[4];
            gets(b);
            return 0; }""", stdin=b"waytoolong\n")
        assert result.fault == "buffer-overflow"

    def test_fgets_bounded_keeps_newline(self):
        assert out("""int main(void){
            char b[32];
            fgets(b, sizeof(b), stdin);
            printf("[%s]", b);
            return 0; }""", stdin=b"line\n") == "[line\n]"

    def test_fgets_truncates(self):
        assert out("""int main(void){
            char b[4];
            fgets(b, sizeof(b), stdin);
            printf("[%s]", b);
            return 0; }""", stdin=b"abcdef\n") == "[abc]"

    def test_fgets_eof_returns_null(self):
        assert out("""int main(void){
            char b[8];
            if (fgets(b, 8, stdin) == NULL) puts("eof");
            return 0; }""", stdin=b"") == "eof\n"

    def test_getchar(self):
        assert out("""int main(void){
            int a = getchar(), b = getchar();
            printf("%c%c\\n", a, b);
            return 0; }""", stdin=b"xy") == "xy\n"


class TestStdinTape:
    """``ExecutionResult.read_stdin``: did the run look at stdin at all?"""

    DECLS = "char *gets_s(char *s, int n);\nchar *s3_gets(char *dest);\n"
    READS = {
        "gets": "gets(b);",
        "fgets": "fgets(b, sizeof(b), stdin);",
        "getchar": "getchar();",
        "fgetc": "fgetc(stdin);",
        "gets_s": "gets_s(b, sizeof(b));",
        "s3_gets": "s3_gets(b);",
        "fread": "fread(b, 1, 4, stdin);",
        "feof": "feof(stdin);",
    }

    @pytest.mark.parametrize("stdin", [b"data\n", b""],
                             ids=["data", "eof"])
    @pytest.mark.parametrize("builtin", sorted(READS))
    def test_each_stdin_builtin_marks_the_run(self, builtin, stdin):
        result = run(P + self.DECLS + "int main(void){ char b[32]; "
                     + self.READS[builtin] + " return 0; }", stdin=stdin)
        assert result.ok, result.fault_detail
        assert result.read_stdin

    def test_print_only_program_does_not(self):
        result = run(P + """int main(void){
            char b[8];
            strcpy(b, "hi");
            printf("%s %d\\n", b, (int)strlen(b));
            return 0; }""", stdin=b"ignored\n")
        assert result.stdout_text == "hi 2\n"
        assert not result.read_stdin

    def test_fault_before_any_read_does_not(self):
        result = run(P + """int main(void){
            char b[4];
            strcpy(b, "much too long");
            gets(b);
            return 0; }""", stdin=b"x\n")
        assert result.fault == "buffer-overflow"
        assert not result.read_stdin

    def test_fgets_and_fgetc_read_the_stream_they_are_given(self):
        # A file read is not a stdin read, and must not see stdin's bytes.
        result = run(P + """int main(void){
            char buf[32];
            FILE *f = fopen("data.txt", "w");
            fwrite("abc\\n", 1, 4, f);
            fclose(f);
            f = fopen("data.txt", "r");
            if (fgets(buf, 32, f) == NULL) puts("null");
            printf("[%s]%d\\n", buf, fgetc(f));
            return 0; }""", stdin=b"FROM-STDIN\n")
        assert result.stdout_text == "[abc\n]-1\n"
        assert not result.read_stdin

    #: A read from a write-only stream, and what glibc returns for it.
    WRITE_ONLY = {
        "fgets": ("fgets(b, sizeof(b), {s}) == NULL", "1"),
        "fgetc": ("fgetc({s})", "-1"),
        "fread": ("(int)fread(b, 1, 4, {s})", "0"),
        "feof": ("feof({s})", "0"),
    }

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    @pytest.mark.parametrize("builtin", sorted(WRITE_ONLY))
    def test_write_only_std_streams_read_nothing(self, builtin, stream):
        call, expected = self.WRITE_ONLY[builtin]
        result = run(P + "int main(void){ char b[32]; printf(\"%d\\n\", "
                     + call.format(s=stream) + "); return 0; }",
                     stdin=b"SECRET\n")
        assert result.ok, result.fault_detail
        assert result.stdout_text == expected + "\n"
        assert not result.read_stdin

    def test_stdin_is_intact_after_a_read_from_stdout(self):
        assert out("""int main(void){
            char b[32];
            fgetc(stdout);
            fgets(b, sizeof(b), stderr);
            fgets(b, sizeof(b), stdin);
            printf("[%s]", b);
            return 0; }""", stdin=b"SECRET\n") == "[SECRET\n]"

    def test_file_reads_share_one_position(self):
        assert out("""int main(void){
            char buf[8];
            FILE *f = fopen("d.txt", "w");
            fwrite("xy\\nzw", 1, 5, f);
            fclose(f);
            f = fopen("d.txt", "r");
            int c = fgetc(f);
            fgets(buf, sizeof(buf), f);
            printf("%c[%s]", c, buf);
            fgets(buf, 2, f);
            printf("[%s]%d", buf, feof(f));
            fgets(buf, sizeof(buf), f);
            printf("[%s]%d\\n", buf, feof(f));
            return 0; }""", stdin=b"") == "x[y\n][z]0[w]1\n"


class TestHeap:
    def test_malloc_free_cycle(self):
        assert out("""int main(void){
            for (int i = 0; i < 10; i++) {
                char *p = malloc(100);
                p[99] = 'x';
                free(p);
            }
            puts("ok");
            return 0; }""") == "ok\n"

    def test_malloc_usable_size_rounding(self):
        assert out("""#include <malloc.h>
        int main(void){
            char *p = malloc(10);
            printf("%lu\\n", malloc_usable_size(p));
            return 0; }""") == "16\n"

    def test_write_into_usable_slack_is_fine(self):
        assert out("""int main(void){
            char *p = malloc(10);
            p[15] = 'x';
            puts("ok");
            return 0; }""") == "ok\n"

    def test_write_past_usable_size_faults(self):
        result = run(P + """int main(void){
            char *p = malloc(10);
            p[16] = 'x';
            return 0; }""")
        assert result.fault == "buffer-overflow"

    def test_calloc_zeroes(self):
        assert out("""int main(void){
            int *arr = calloc(4, sizeof(int));
            printf("%d%d%d%d\\n", arr[0], arr[1], arr[2], arr[3]);
            return 0; }""") == "0000\n"

    def test_realloc_preserves_data(self):
        assert out("""int main(void){
            char *p = malloc(4);
            strcpy(p, "abc");
            p = realloc(p, 64);
            strcat(p, "def");
            printf("%s\\n", p);
            return 0; }""") == "abcdef\n"

    def test_double_free_detected(self):
        result = run(P + """int main(void){
            char *p = malloc(4);
            free(p);
            free(p);
            return 0; }""")
        assert result.fault == "double-free"


class TestStrallocRuntime:
    HDR = "#include <stralloc.h>\n"

    def test_copys_and_length(self):
        assert out(self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            stralloc_copys(&sa, "hello");
            printf("%u %s\\n", stralloc_length(&sa), sa.s);
            return 0; }""") == "5 hello\n"

    def test_cat_and_append(self):
        assert out(self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            stralloc_copys(&sa, "ab");
            stralloc_cats(&sa, "cd");
            stralloc_append(&sa, '!');
            printf("%s\\n", sa.s);
            return 0; }""") == "abcd!\n"

    def test_growth_beyond_initial_capacity(self):
        assert out(self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            for (int i = 0; i < 100; i++) stralloc_append(&sa, 'x');
            printf("%u\\n", sa.len);
            return 0; }""") == "100\n"

    def test_replace_and_get(self):
        assert out(self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            stralloc_copys(&sa, "abc");
            stralloc_dereference_replace_by(&sa, 1, 'X');
            printf("%c\\n", stralloc_get_dereferenced_char_at(&sa, 1));
            return 0; }""") == "X\n"

    def test_get_out_of_bounds_returns_zero(self):
        assert out(self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            stralloc_copys(&sa, "abc");
            printf("%d\\n",
                   stralloc_get_dereferenced_char_at(&sa, 1000));
            return 0; }""") == "0\n"

    def test_replace_grows(self):
        # Writing past the logical end grows the *allocation*; strlen (and
        # hence len) is unchanged because the terminator at index len
        # still precedes the written byte — exactly C's semantics.
        assert out(self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            stralloc_dereference_replace_by(&sa, 50, 'q');
            printf("%c %u\\n",
                   stralloc_get_dereferenced_char_at(&sa, 50), sa.len);
            return 0; }""") == "q 0\n"

    def test_increment_decrement_bounded(self):
        result = run(P + self.HDR + """int main(void){
            stralloc sa = {0,0,0,0};
            stralloc_copys(&sa, "abcdef");
            stralloc_increment_by(&sa, 2);
            printf("%s\\n", sa.s);
            int ok = stralloc_decrement_by(&sa, 10);
            printf("%d %d\\n", ok, sa.s == sa.f);
            return 0; }""")
        # The out-of-range decrement is refused (clamped to the base) and
        # reported via the return value — never an out-of-bounds access.
        assert result.ok
        assert result.stdout_text == "cdef\n0 1\n"

    def test_compare_and_equals(self):
        assert out(self.HDR + """int main(void){
            stralloc a = {0,0,0,0}, b = {0,0,0,0};
            stralloc_copys(&a, "same");
            stralloc_copys(&b, "same");
            printf("%d %d\\n", stralloc_compare(&a, &b),
                   stralloc_equals(&a, &b));
            return 0; }""") == "0 1\n"

    def test_find_char_and_substring(self):
        assert out(self.HDR + """int main(void){
            stralloc a = {0,0,0,0}, n = {0,0,0,0};
            stralloc_copys(&a, "hello world");
            stralloc_copys(&n, "wor");
            printf("%d %d %d\\n", stralloc_find_char(&a, 'o'),
                   stralloc_find_char(&a, 'z'),
                   stralloc_substring_at(&a, &n));
            return 0; }""") == "4 -1 6\n"

    def test_memset_sets_len(self):
        assert out(self.HDR + """int main(void){
            stralloc a = {0,0,0,0};
            stralloc_memset(&a, 'z', 5);
            printf("%s %u\\n", a.s, a.len);
            return 0; }""") == "zzzzz 5\n"

    def test_free_resets(self):
        assert out(self.HDR + """int main(void){
            stralloc a = {0,0,0,0};
            stralloc_copys(&a, "data");
            stralloc_free(&a);
            printf("%u %u %d\\n", a.len, a.a, a.s == NULL);
            return 0; }""") == "0 0 1\n"

    def test_declared_capacity_used_on_first_alloc(self):
        # STR records char buf[1024] as a = 1024 before first use.
        assert out(self.HDR + """int main(void){
            stralloc a = {0,0,0,0};
            a.a = 1024;
            stralloc_copys(&a, "x");
            printf("%d\\n", a.a >= 1024);
            return 0; }""") == "1\n"


class TestMisc:
    def test_atoi_strtol(self):
        assert out("""int main(void){
            printf("%d %d %ld\\n", atoi("42"), atoi("-7x"),
                   strtol("0x1f", NULL, 0));
            return 0; }""") == "42 -7 31\n"

    def test_sscanf_basic(self):
        assert out("""int main(void){
            int a, b;
            char word[16];
            int n = sscanf("10 hats 20", "%d %s %d", &a, word, &b);
            printf("%d %d %s %d\\n", n, a, word, b);
            return 0; }""") == "3 10 hats 20\n"

    def test_ctype_functions(self):
        assert out("""#include <ctype.h>
        int main(void){
            printf("%d%d%d %c\\n", isalpha('a'), isdigit('5'),
                   isspace(' '), toupper('q'));
            return 0; }""") == "111 Q\n"

    def test_abs_and_rand_deterministic(self):
        text = out("""int main(void){
            srand(1);
            int a = rand();
            srand(1);
            int b = rand();
            printf("%d %d\\n", abs(-9), a == b);
            return 0; }""")
        assert text == "9 1\n"

    def test_assert_failure(self):
        result = run(P + """#include <assert.h>
        int main(void){ assert(1 == 2); return 0; }""")
        assert result.fault == "assertion-failure"

    def test_virtual_file_roundtrip(self):
        assert out("""int main(void){
            FILE *f = fopen("data.txt", "w");
            fwrite("payload", 1, 7, f);
            fclose(f);
            FILE *g = fopen("data.txt", "r");
            char buf[16];
            int n = (int)fread(buf, 1, 7, g);
            buf[n] = '\\0';
            fclose(g);
            printf("%s\\n", buf);
            return 0; }""") == "payload\n"

    def test_fopen_missing_file_null(self):
        assert out("""int main(void){
            FILE *f = fopen("missing.bin", "r");
            if (f == NULL) puts("no file");
            return 0; }""") == "no file\n"
