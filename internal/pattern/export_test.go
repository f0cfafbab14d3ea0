package pattern

// PermuteTemplate exposes permuteTemplate to the external test package.
var PermuteTemplate = permuteTemplate
